//! Open-loop request serving on top of the gang scheduler.
//!
//! A [`ServiceModel`] turns the gang scheduler into a request-serving system:
//! every `ShredCreate` executed under the model is an *admission* of the next
//! request from a pre-recorded arrival schedule.  The scheduler then measures
//! each request from its **scheduled** arrival cycle to its completion cycle,
//! so any lag the generator accumulates under load (or any queueing before a
//! pool slot frees up) is charged to the request — the open-loop discipline
//! that avoids coordinated omission.
//!
//! Two knobs shape the system:
//!
//! * [`ServiceModel::with_queue_bound`] bounds the number of outstanding
//!   requests (queued + in service); arrivals beyond the bound are *dropped*
//!   (counted, no shred created) like a full accept queue.
//! * [`ServiceModel::with_pool_width`] bounds how many requests may be in
//!   service at once (the `k` of an M/M/k-shaped pool).  A request at the
//!   head of the ready queue waits — head-of-line, preserving FIFO order —
//!   until a slot frees, even if sequencers are idle.
//!
//! Because the arrival schedule is recorded up front (a plain `Vec` of
//! cycles), the *same* schedule can be replayed against different machines
//! and pool shapes: common random numbers, giving paired low-variance
//! comparisons.
//!
//! A request is data, not a program, and so is the generator.  The model
//! carries each request's recorded service demand and one [`RequestShape`];
//! the scheduler builds request `n`'s few ops only when it admits request
//! `n` (like ShredLib's `Shred_create`, which queues shared code plus
//! per-shred state).  The generator program that drives the stream
//! ([`ServiceModel::generator`]) holds only the first arrival's
//! `compute(gap)` + `shred_create` pair; each create that consumes arrival
//! `i` continues the generator shred with the pair of arrival `i + 1`.  A
//! finished request releases its program and its cursor slot, the
//! generator's two-item continuations alternate between two buffers, and
//! every such program is rewritten in place, so the steady state allocates
//! nothing per request.  The scheduler's table of tracked requests is
//! indexed by the shreds' cursor-slab slots, so it is as long as the peak
//! number of live shreds.  What still grows with the stream is the shred
//! pool's 16-byte record per created shred and the model's arrival and
//! demand, 16 bytes per request.

use misp_isa::{Op, ProgramItem, ProgramRef, RuntimeOp, ShredProgram, SyscallKind};
use misp_sim::ServiceStats;
use misp_types::{Cycles, ShredId, VirtAddr, PAGE_SIZE};
use std::sync::Arc;

/// Cap on the recorded queue-depth time series; recording stops (counters
/// continue) once this many edges have been captured.
const MAX_DEPTH_SAMPLES: usize = 4096;

/// What every request of a stream does, apart from its service demand: it
/// loads its slice of a shared session working set, computes its demand,
/// and every `syscall_every`-th request then issues an I/O system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestShape {
    /// Base address of the session working set shared by all requests.
    pub session_base: VirtAddr,
    /// Pages in the session working set; request `n` loads pages
    /// `n * touches ..` modulo this count.
    pub session_pages: u64,
    /// Session pages each request loads before it computes.
    pub touches: u64,
    /// Request `n` issues an I/O system call when `n` is a multiple of this
    /// period; zero means never.
    pub syscall_every: u64,
}

impl RequestShape {
    /// Whether request `index` ends with a system call.
    fn syscalls(&self, index: usize) -> bool {
        self.syscall_every > 0 && (index as u64).is_multiple_of(self.syscall_every)
    }

    /// The number of ops of request `index`.
    fn op_count(&self, index: usize) -> usize {
        self.touches as usize + 1 + usize::from(self.syscalls(index))
    }

    /// Appends the ops of request `index` with service `demand` to `ops`.
    fn push_ops(&self, index: usize, demand: Cycles, ops: &mut Vec<ProgramItem>) {
        let n = index as u64;
        for t in 0..self.touches {
            let page = (n * self.touches + t) % self.session_pages;
            ops.push(ProgramItem::Op(Op::load(
                self.session_base.offset(page * PAGE_SIZE),
            )));
        }
        ops.push(ProgramItem::Op(Op::Compute(demand)));
        if self.syscalls(index) {
            ops.push(ProgramItem::Op(Op::Syscall(SyscallKind::Io)));
        }
    }
}

/// Appends the generator's ops for one arrival: wait `gap` cycles, then
/// create a shred naming the `request` template.
fn push_arrival(gap: Cycles, request: ProgramRef, ops: &mut Vec<ProgramItem>) {
    ops.push(ProgramItem::Op(Op::Compute(gap)));
    ops.push(ProgramItem::Op(Op::Runtime(RuntimeOp::ShredCreate {
        program: request,
    })));
}

/// A recorded open-loop request schedule plus service-system shape.
///
/// `arrivals[n]` is the scheduled arrival cycle of the `n`-th request and
/// `demands[n]` its service demand; the `n`-th `ShredCreate` executed under
/// the model admits (or drops) exactly that request, whatever the machine it
/// replays on.  An admitted request's shred runs the ops of
/// [`ServiceModel::request_ops`], not the program its `ShredCreate` names.
/// Those programs carry an empty name: a request shred costs no name
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceModel {
    arrivals: Vec<Cycles>,
    demands: Vec<Cycles>,
    shape: RequestShape,
    pool_width: Option<usize>,
    queue_bound: Option<usize>,
}

impl ServiceModel {
    /// Creates a model for a recorded stream, with an unbounded queue and an
    /// unbounded pool: request `n` arrives at `arrivals[n]`, computes
    /// `demands[n]` cycles and otherwise follows `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` and `demands` differ in length, if `arrivals`
    /// ever decreases (the generator waits the difference of adjacent
    /// arrivals), or if `shape` asks for touches in an empty session
    /// working set.
    #[must_use]
    pub fn new(arrivals: Vec<Cycles>, demands: Vec<Cycles>, shape: RequestShape) -> Self {
        assert_eq!(
            demands.len(),
            arrivals.len(),
            "one service demand per arrival"
        );
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrivals must not decrease"
        );
        assert!(
            shape.touches == 0 || shape.session_pages > 0,
            "requests that touch the session need at least one session page"
        );
        ServiceModel {
            arrivals,
            demands,
            shape,
            pool_width: None,
            queue_bound: None,
        }
    }

    /// The ops of request `index`, built with exact capacity: its
    /// session-page loads, `Compute(demand)`, and `Syscall(Io)` on every
    /// `syscall_every`-th request.  `None` when `index` is past the stream.
    #[must_use]
    pub fn request_ops(&self, index: usize) -> Option<Vec<ProgramItem>> {
        let demand = *self.demands.get(index)?;
        let mut ops = Vec::with_capacity(self.shape.op_count(index));
        self.shape.push_ops(index, demand, &mut ops);
        Some(ops)
    }

    /// The generator program that drives this model from the main shred of
    /// a [`GangScheduler`](crate::GangScheduler): `RegisterHandler`, then
    /// `compute(arrivals[0])` and a `shred_create` of the `request`
    /// template.  It has the same few items whatever the stream's length:
    /// the scheduler continues the generator after each create with the
    /// next arrival's gap and create.  An empty stream gives a generator
    /// that only registers the handler.
    #[must_use]
    pub fn generator(&self, name: impl Into<String>, request: ProgramRef) -> ShredProgram {
        let mut ops = vec![ProgramItem::Op(Op::RegisterHandler)];
        if let Some(&first) = self.arrivals.first() {
            push_arrival(first, request, &mut ops);
        }
        ShredProgram::from_items(name, ops)
    }

    /// Bounds the number of requests in service at once (M/M/k pool shape).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero (no request could ever start).
    #[must_use]
    pub fn with_pool_width(mut self, width: usize) -> Self {
        assert!(width > 0, "a service pool needs at least one slot");
        self.pool_width = Some(width);
        self
    }

    /// Bounds outstanding requests (queued + in service); arrivals beyond the
    /// bound are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero (every request would be dropped).
    #[must_use]
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        assert!(bound > 0, "a queue bound of zero drops everything");
        self.queue_bound = Some(bound);
        self
    }

    /// The recorded arrival schedule.
    #[must_use]
    pub fn arrivals(&self) -> &[Cycles] {
        &self.arrivals
    }

    /// The pool width, if bounded.
    #[must_use]
    pub fn pool_width(&self) -> Option<usize> {
        self.pool_width
    }

    /// The outstanding-request bound, if any.
    #[must_use]
    pub fn queue_bound(&self) -> Option<usize> {
        self.queue_bound
    }
}

/// What [`ServiceState::admit`] decided about an arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Admit the request; the shred about to be created serves arrival
    /// `index` of the schedule.
    Admit { index: usize },
    /// The queue bound is hit: drop the arrival, creating no shred.
    Drop,
    /// The arrival schedule is exhausted; this create is not a request of the
    /// schedule (mixed workloads) and proceeds untracked.
    Untracked,
}

/// A tracked request in the request table: the shred serving it, its
/// arrival index, and whether it has started service.
#[derive(Debug, Clone, Copy)]
struct Request {
    shred: ShredId,
    index: usize,
    started: bool,
}

/// Live bookkeeping the gang scheduler keeps while driving a
/// [`ServiceModel`].
#[derive(Debug)]
pub(crate) struct ServiceState {
    model: ServiceModel,
    /// Index of the next arrival to admit or drop.
    next_arrival: usize,
    /// Tracked requests, indexed by their shreds' cursor-slab slots.  An
    /// entry matches only the shred it stores: a slot reused by a later
    /// shred never aliases an old request.
    requests: Vec<Option<Request>>,
    /// Requests currently holding a pool slot.
    in_service: usize,
    /// Requests admitted and not yet completed.
    outstanding: usize,
    stats: ServiceStats,
    /// Programs of completed requests, rewritten in place for later
    /// admissions once their shreds have released them.
    spare: Vec<Arc<ShredProgram>>,
    /// The generator program the last continuation replaced, rewritten in
    /// place for the next one.
    spare_generator: Option<Arc<ShredProgram>>,
}

impl ServiceState {
    pub(crate) fn new(model: ServiceModel) -> Self {
        ServiceState {
            model,
            next_arrival: 0,
            requests: Vec::new(),
            in_service: 0,
            outstanding: 0,
            stats: ServiceStats::default(),
            spare: Vec::new(),
            spare_generator: None,
        }
    }

    fn sample_depth(&mut self, now: Cycles) {
        if self.stats.queue_depth.len() < MAX_DEPTH_SAMPLES {
            self.stats
                .queue_depth
                .push((now.as_u64(), self.outstanding as u64));
        }
    }

    /// Decides the fate of the next scheduled arrival.  Consumes the arrival
    /// index either way: a dropped request is still the `n`-th arrival.
    pub(crate) fn admit(&mut self, now: Cycles) -> Admission {
        if self.next_arrival >= self.model.arrivals.len() {
            return Admission::Untracked;
        }
        let index = self.next_arrival;
        self.next_arrival += 1;
        if let Some(bound) = self.model.queue_bound {
            if self.outstanding >= bound {
                self.stats.dropped += 1;
                return Admission::Drop;
            }
        }
        self.stats.admitted += 1;
        self.outstanding += 1;
        self.stats.max_outstanding = self.stats.max_outstanding.max(self.outstanding as u64);
        self.sample_depth(now);
        Admission::Admit { index }
    }

    /// The program for admitted arrival `index`.  A completed request's
    /// program that its shred has released is rewritten in place, so
    /// steady-state admissions allocate nothing; otherwise the ops are built
    /// with exact capacity.
    pub(crate) fn request_program(&mut self, index: usize) -> Arc<ShredProgram> {
        if let Some(mut program) = self.spare.pop() {
            if let Some(reusable) = Arc::get_mut(&mut program) {
                let ops = reusable.items_mut();
                ops.clear();
                self.model
                    .shape
                    .push_ops(index, self.model.demands[index], ops);
                return program;
            }
        }
        let ops = self
            .model
            .request_ops(index)
            .expect("an admitted arrival is in the stream");
        Arc::new(ShredProgram::from_items(String::new(), ops))
    }

    /// Keeps a completed request's program for reuse by a later admission.
    pub(crate) fn reclaim(&mut self, program: Arc<ShredProgram>) {
        self.spare.push(program);
    }

    /// The generator's next stretch after a create consumed the latest
    /// arrival: `compute` up to the next arrival, then `shred_create` of
    /// `request`.  `None` once the last arrival is consumed.  The program
    /// the previous continuation replaced is rewritten in place, so after
    /// the first two the continuations allocate nothing.
    pub(crate) fn continuation(&mut self, request: ProgramRef) -> Option<Arc<ShredProgram>> {
        let next = self.next_arrival;
        if next == 0 || next >= self.model.arrivals.len() {
            return None;
        }
        let gap = self.model.arrivals[next] - self.model.arrivals[next - 1];
        if let Some(mut program) = self.spare_generator.take() {
            if let Some(reusable) = Arc::get_mut(&mut program) {
                let ops = reusable.items_mut();
                ops.clear();
                push_arrival(gap, request, ops);
                return Some(program);
            }
        }
        let mut ops = Vec::with_capacity(2);
        push_arrival(gap, request, &mut ops);
        Some(Arc::new(ShredProgram::from_items(String::new(), ops)))
    }

    /// Keeps the generator program a continuation replaced, for reuse by
    /// the next one.
    pub(crate) fn reclaim_generator(&mut self, program: Arc<ShredProgram>) {
        self.spare_generator = Some(program);
    }

    /// The tracked request of live `shred` in cursor-slab slot `slot`.
    fn request(&self, shred: ShredId, slot: usize) -> Option<&Request> {
        self.requests
            .get(slot)?
            .as_ref()
            .filter(|r| r.shred == shred)
    }

    /// Registers the shred created for an admitted arrival; `slot` is its
    /// cursor-slab slot.
    pub(crate) fn register(&mut self, shred: ShredId, slot: usize, index: usize) {
        if slot >= self.requests.len() {
            self.requests.resize(slot + 1, None);
        }
        self.requests[slot] = Some(Request {
            shred,
            index,
            started: false,
        });
    }

    /// Whether `shred`, in cursor-slab slot `slot`, may be dispatched right
    /// now.  Untracked shreds (the generator, joiners) always may; a
    /// tracked request that has not yet started must find a free pool
    /// slot.
    pub(crate) fn may_dispatch(&self, shred: ShredId, slot: usize) -> bool {
        match (self.request(shred, slot), self.model.pool_width) {
            (Some(r), Some(width)) if !r.started => self.in_service < width,
            _ => true,
        }
    }

    /// Marks `shred`, in cursor-slab slot `slot`, as dispatched (idempotent
    /// for re-dispatch after the shred blocked and woke).
    pub(crate) fn dispatched(&mut self, shred: ShredId, slot: usize) {
        if let Some(Some(r)) = self.requests.get_mut(slot) {
            if r.shred == shred && !r.started {
                r.started = true;
                self.in_service += 1;
            }
        }
    }

    /// Completes `shred`, in cursor-slab slot `slot`, if it is a tracked
    /// request, recording its latency from the scheduled arrival.  Returns
    /// `true` when a pool slot was freed (the caller should wake idle
    /// sequencers).
    pub(crate) fn complete(&mut self, shred: ShredId, slot: usize, now: Cycles) -> bool {
        let Some(entry) = self.requests.get_mut(slot) else {
            return false;
        };
        let Some(Request { index, started, .. }) = entry.take_if(|r| r.shred == shred) else {
            return false;
        };
        if started {
            self.in_service -= 1;
        }
        self.outstanding -= 1;
        self.stats.completed += 1;
        let scheduled = self.model.arrivals[index];
        self.stats
            .latency
            .record(now.saturating_sub(scheduled).as_u64());
        self.sample_depth(now);
        true
    }

    /// Length of the request table: at most the peak number of live
    /// shreds, whatever the stream's length.
    pub(crate) fn table_len(&self) -> usize {
        self.requests.len()
    }

    pub(crate) fn stats(&self) -> &ServiceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> RequestShape {
        RequestShape {
            session_base: VirtAddr::new(0x1000_0000),
            session_pages: 3,
            touches: 2,
            syscall_every: 2,
        }
    }

    /// `n` requests arriving 100 cycles apart, request `i` demanding `7 + i`.
    fn model(n: u64) -> ServiceModel {
        ServiceModel::new(
            (0..n).map(|i| Cycles::new(i * 100)).collect(),
            (0..n).map(|i| Cycles::new(7 + i)).collect(),
            shape(),
        )
    }

    #[test]
    fn admissions_consume_arrivals_in_order() {
        let mut st = ServiceState::new(model(2));
        assert_eq!(st.admit(Cycles::new(0)), Admission::Admit { index: 0 });
        assert_eq!(st.admit(Cycles::new(100)), Admission::Admit { index: 1 });
        // Schedule exhausted: further creates are not requests.
        assert_eq!(st.admit(Cycles::new(200)), Admission::Untracked);
        assert_eq!(st.stats().admitted, 2);
        assert_eq!(st.stats().dropped, 0);
    }

    #[test]
    fn queue_bound_drops_but_still_consumes_the_arrival() {
        let mut st = ServiceState::new(model(3).with_queue_bound(1));
        assert_eq!(st.admit(Cycles::new(0)), Admission::Admit { index: 0 });
        st.register(ShredId::new(1), 1, 0);
        // Outstanding is 1 >= bound: the second arrival is dropped...
        assert_eq!(st.admit(Cycles::new(100)), Admission::Drop);
        assert_eq!(st.stats().dropped, 1);
        // ...and completing the first frees room for the *third* arrival.
        assert!(st.complete(ShredId::new(1), 1, Cycles::new(150)));
        assert_eq!(st.admit(Cycles::new(200)), Admission::Admit { index: 2 });
    }

    #[test]
    fn pool_width_gates_dispatch_head_of_line() {
        let mut st = ServiceState::new(model(2).with_pool_width(1));
        assert_eq!(st.admit(Cycles::new(0)), Admission::Admit { index: 0 });
        st.register(ShredId::new(1), 1, 0);
        assert_eq!(st.admit(Cycles::new(100)), Admission::Admit { index: 1 });
        st.register(ShredId::new(2), 2, 1);
        assert!(st.may_dispatch(ShredId::new(1), 1));
        st.dispatched(ShredId::new(1), 1);
        assert!(!st.may_dispatch(ShredId::new(2), 2), "pool of one is full");
        // Untracked shreds (the generator) are never gated.
        assert!(st.may_dispatch(ShredId::new(9), 0));
        assert!(st.complete(ShredId::new(1), 1, Cycles::new(500)));
        assert!(st.may_dispatch(ShredId::new(2), 2), "slot freed");
    }

    #[test]
    fn latency_is_measured_from_the_scheduled_arrival() {
        let mut st = ServiceState::new(model(1));
        // The generator runs late: admission at 40 for an arrival scheduled
        // at 0; completion at 250 must record 250, not 210.
        assert_eq!(st.admit(Cycles::new(40)), Admission::Admit { index: 0 });
        st.register(ShredId::new(1), 1, 0);
        st.dispatched(ShredId::new(1), 1);
        assert!(st.complete(ShredId::new(1), 1, Cycles::new(250)));
        assert_eq!(st.stats().latency.max(), 250);
        assert_eq!(st.stats().completed, 1);
    }

    #[test]
    fn request_ops_follow_the_shape() {
        let m = model(3);
        let load =
            |page: u64| ProgramItem::Op(Op::load(VirtAddr::new(0x1000_0000 + page * PAGE_SIZE)));
        let ops = m.request_ops(1).unwrap();
        assert_eq!(
            ops,
            vec![
                load(2),
                load(0),
                ProgramItem::Op(Op::Compute(Cycles::new(8)))
            ]
        );
        assert_eq!(ops.capacity(), ops.len(), "built with exact capacity");
        let ops = m.request_ops(2).unwrap();
        assert_eq!(ops.len(), 4, "request 2 ends with a system call");
        assert_eq!(ops.capacity(), 4);
        assert_eq!(ops[3], ProgramItem::Op(Op::Syscall(SyscallKind::Io)));
        assert!(m.request_ops(3).is_none(), "past the stream");
    }

    #[test]
    fn released_request_programs_are_rewritten_in_place() {
        let mut st = ServiceState::new(model(3));
        let first = st.request_program(0);
        st.reclaim(Arc::clone(&first));
        // The shred still runs `first`: the next admission cannot reuse it.
        let second = st.request_program(1);
        assert!(!Arc::ptr_eq(&first, &second));
        st.reclaim(Arc::clone(&second));
        // Once the shred releases it, the buffer is rewritten in place.
        let reused = Arc::as_ptr(&second);
        drop(second);
        let third = st.request_program(2);
        assert_eq!(Arc::as_ptr(&third), reused);
        assert_eq!(third.items(), st.model.request_ops(2).unwrap().as_slice());
        assert_eq!(first.items(), st.model.request_ops(0).unwrap().as_slice());
    }

    #[test]
    fn a_reused_slot_does_not_alias_the_old_request() {
        let mut st = ServiceState::new(model(2).with_pool_width(1));
        assert_eq!(st.admit(Cycles::new(0)), Admission::Admit { index: 0 });
        st.register(ShredId::new(1), 1, 0);
        st.dispatched(ShredId::new(1), 1);
        // Shred 7 sits in slot 1 as far as a stale caller knows: it is not
        // the request stored there, so it is neither gated nor completed.
        assert!(st.may_dispatch(ShredId::new(7), 1));
        st.dispatched(ShredId::new(7), 1);
        assert!(!st.complete(ShredId::new(7), 1, Cycles::new(10)));
        assert!(st.complete(ShredId::new(1), 1, Cycles::new(20)));
        // Slot 1 is free again and serves the next request.
        assert_eq!(st.admit(Cycles::new(100)), Admission::Admit { index: 1 });
        st.register(ShredId::new(2), 1, 1);
        assert!(st.may_dispatch(ShredId::new(2), 1));
        assert!(!st.complete(ShredId::new(1), 1, Cycles::new(30)));
        assert_eq!(st.table_len(), 2, "the table is as long as the slab");
        assert_eq!(st.stats().completed, 1);
    }

    #[test]
    fn the_generator_starts_with_the_first_arrival_only() {
        let request = ProgramRef::new(0);
        let create = ProgramItem::Op(Op::Runtime(RuntimeOp::ShredCreate { program: request }));
        let generator = model(5).generator("gen", request);
        assert_eq!(generator.name(), "gen");
        assert_eq!(
            generator.items(),
            [
                ProgramItem::Op(Op::RegisterHandler),
                ProgramItem::Op(Op::Compute(Cycles::new(0))),
                create,
            ]
        );
        let empty = model(0).generator("gen", request);
        assert_eq!(empty.items(), [ProgramItem::Op(Op::RegisterHandler)]);
    }

    #[test]
    fn continuations_follow_the_arrival_gaps_and_alternate_two_buffers() {
        let request = ProgramRef::new(3);
        let pair = |gap: u64| {
            vec![
                ProgramItem::Op(Op::Compute(Cycles::new(gap))),
                ProgramItem::Op(Op::Runtime(RuntimeOp::ShredCreate { program: request })),
            ]
        };
        let mut st = ServiceState::new(
            ServiceModel::new(
                [5, 25, 25, 70].map(Cycles::new).to_vec(),
                vec![Cycles::new(1); 4],
                shape(),
            )
            .with_queue_bound(1),
        );
        assert!(st.continuation(request).is_none(), "nothing consumed yet");
        // The generator shred's library program, still shared.
        let library = Arc::new(model(1).generator("gen", request));
        st.admit(Cycles::new(5));
        let first = st.continuation(request).unwrap();
        assert_eq!(first.items(), pair(20));
        st.reclaim_generator(Arc::clone(&library));
        // A drop consumes the arrival too.
        assert_eq!(st.admit(Cycles::new(25)), Admission::Drop);
        let second = st.continuation(request).unwrap();
        assert_eq!(second.items(), pair(0), "equal arrivals wait nothing");
        assert!(
            !Arc::ptr_eq(&second, &library),
            "a shared program is not reused"
        );
        // `first` comes back unshared once `second` replaces it.
        let reused = Arc::as_ptr(&first);
        st.reclaim_generator(first);
        assert_eq!(st.admit(Cycles::new(25)), Admission::Drop);
        let third = st.continuation(request).unwrap();
        assert_eq!(Arc::as_ptr(&third), reused, "rewritten in place");
        assert_eq!(third.items(), pair(45));
        st.reclaim_generator(second);
        assert_eq!(st.admit(Cycles::new(70)), Admission::Drop);
        assert!(
            st.continuation(request).is_none(),
            "the last arrival is consumed"
        );
    }

    #[test]
    fn zero_pool_width_is_rejected() {
        let result = std::panic::catch_unwind(|| model(1).with_pool_width(0));
        assert!(result.is_err());
    }
}
