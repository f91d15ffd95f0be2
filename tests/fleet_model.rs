//! Model-based tests of the fleet layer and of the machine run loop it is
//! built from.
//!
//! A fleet runs each member on its own, so a fleet of one — and every member
//! of a larger fleet — replays the solo engine byte-for-byte, down to the
//! event-log digest.  A run sliced by `Machine::advance` horizons replays
//! the unsliced run the same way.

use misp::core::{MispMachine, MispTopology};
use misp::isa::ProgramLibrary;
use misp::sim::{FleetEngine, FleetReport, MachineStatus, SimConfig};
use misp::types::Cycles;
use misp::workloads::{catalog, Run};

/// Builds the MISP uniprocessor machine the runner would for `workload`,
/// ready to drop into a fleet.
fn misp_machine(workload: &misp::workloads::Workload) -> MispMachine {
    let topology = MispTopology::uniprocessor(7).unwrap();
    let mut library = ProgramLibrary::new();
    let scheduler = workload.build(&mut library, 8);
    let mut machine = MispMachine::new(topology, SimConfig::default(), library);
    machine.add_process(workload.name(), Box::new(scheduler), Some(0));
    machine
}

/// A fleet of one replays the single-machine engine exactly: same completion
/// time, same event-log digest — which is also what keeps every pre-fleet
/// golden byte-identical.
#[test]
fn a_fleet_of_one_reproduces_the_single_machine_engine() {
    for workload in catalog::all().iter().take(4) {
        let solo = Run::workload(workload)
            .topology(MispTopology::uniprocessor(7).unwrap())
            .execute()
            .unwrap();

        let mut fleet = FleetEngine::new(Cycles::new(200_000));
        fleet.add_machine(misp_machine(workload).into_sim_machine());
        let report = fleet.run_fleet().unwrap();

        let name = workload.name();
        assert_eq!(report.reports.len(), 1, "{name}");
        assert_eq!(
            report.reports[0].total_cycles, solo.total_cycles,
            "{name}: fleet-of-one completion time"
        );
        assert_eq!(
            report.reports[0].log_digest, solo.log_digest,
            "{name}: fleet-of-one event-log digest"
        );
        assert_eq!(
            report.fleet_digest,
            FleetReport::new(vec![solo.clone()]).fleet_digest,
            "{name}: fleet digest is a pure function of the member digests"
        );
    }
}

/// Fleet members run independently: every member of a mixed 3-machine fleet
/// finishes with the digest of its solo run.
#[test]
fn independent_fleet_members_replay_their_solo_runs() {
    let picks: Vec<_> = catalog::all().into_iter().take(3).collect();
    let solos: Vec<_> = picks
        .iter()
        .map(|w| {
            Run::workload(w)
                .topology(MispTopology::uniprocessor(7).unwrap())
                .execute()
                .unwrap()
        })
        .collect();

    let mut fleet = FleetEngine::new(Cycles::new(1_000));
    for w in &picks {
        fleet.add_machine(misp_machine(w).into_sim_machine());
    }
    let report = fleet.run_fleet().unwrap();

    assert_eq!(report.reports.len(), picks.len());
    for ((w, solo), fleet_report) in picks.iter().zip(&solos).zip(&report.reports) {
        assert_eq!(
            fleet_report.log_digest,
            solo.log_digest,
            "{}: fleet execution must not perturb an isolated machine",
            w.name()
        );
        assert_eq!(
            fleet_report.total_cycles,
            solo.total_cycles,
            "{}: completion time",
            w.name()
        );
    }
    assert_eq!(
        report.total_cycles(),
        solos.iter().map(|s| s.total_cycles).max().unwrap()
    );
}

/// Stepping a machine through `advance(Some(h))` in fixed slices pauses at
/// every horizon and resumes where it stopped: the sliced run ends with the
/// same completion time and event-log digest as `Machine::run`.
#[test]
fn advancing_in_fixed_slices_replays_the_unsliced_run() {
    const SLICE: Cycles = Cycles::new(250_000);
    for workload in catalog::all().iter().take(3) {
        let name = workload.name();
        let solo = misp_machine(workload).into_sim_machine().run().unwrap();

        let mut machine = misp_machine(workload).into_sim_machine();
        machine.start().unwrap();
        let mut horizon = Cycles::ZERO;
        let mut pauses = 0u32;
        loop {
            horizon += SLICE;
            match machine.advance(Some(horizon)).unwrap() {
                MachineStatus::Finished => break,
                MachineStatus::Paused => pauses += 1,
                MachineStatus::Idle => panic!("{name}: drained its queue before finishing"),
            }
        }
        let sliced = machine.finish_report();

        assert!(pauses > 1, "{name}: the slices must actually pause the run");
        assert_eq!(
            sliced.total_cycles, solo.total_cycles,
            "{name}: completion time"
        );
        assert_eq!(
            sliced.log_digest, solo.log_digest,
            "{name}: event-log digest"
        );
    }
}
