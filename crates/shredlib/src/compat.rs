//! Legacy threading API compatibility mappings.
//!
//! Section 5.5 and Table 2 of the paper show that legacy multithreaded
//! software ports to MISP with very little effort because ShredLib provides a
//! thread-to-shred API mapping: most applications only include a single header
//! and recompile.  This module reproduces that mapping as data — for each
//! legacy API function we record the ShredLib primitive it translates to — and
//! provides a coverage report used by the Table 2 experiment harness to
//! quantify how mechanically an application's threading-API usage can be
//! translated.

/// A legacy threading API family supported by the compatibility layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LegacyApi {
    /// POSIX Threads (`pthread_*`, `sem_*`).
    Pthreads,
    /// Win32 threading (`CreateThread`, critical sections, events, TLS).
    Win32,
    /// The OpenMP runtime entry points emitted by the Intel compilers.
    OpenMp,
}

impl LegacyApi {
    /// All supported API families.
    #[must_use]
    pub const fn all() -> [LegacyApi; 3] {
        [LegacyApi::Pthreads, LegacyApi::Win32, LegacyApi::OpenMp]
    }
}

/// One entry of the thread-to-shred mapping table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingEntry {
    /// The API family the legacy function belongs to.
    pub api: LegacyApi,
    /// The legacy function name.
    pub legacy: &'static str,
    /// The ShredLib primitive it maps onto.
    pub shredlib: &'static str,
    /// `true` when the translation is purely mechanical (a one-line macro or
    /// function alias); `false` when the port needs structural attention, like
    /// the blocking-I/O main thread the paper had to restructure in the Open
    /// Dynamics Engine.
    pub mechanical: bool,
}

/// The static thread-to-shred mapping table.
static MAPPINGS: &[MappingEntry] = &[
    // --- POSIX Threads -----------------------------------------------------
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_create",
        shredlib: "shred_create",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_join",
        shredlib: "shred_join",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_exit",
        shredlib: "shred_exit",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_self",
        shredlib: "shred_self",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_yield",
        shredlib: "shred_yield",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "sched_yield",
        shredlib: "shred_yield",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_mutex_init",
        shredlib: "shred_mutex_init",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_mutex_lock",
        shredlib: "shred_mutex_lock",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_mutex_trylock",
        shredlib: "shred_mutex_trylock",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_mutex_unlock",
        shredlib: "shred_mutex_unlock",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_mutex_destroy",
        shredlib: "shred_mutex_destroy",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_cond_init",
        shredlib: "shred_cond_init",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_cond_wait",
        shredlib: "shred_cond_wait",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_cond_signal",
        shredlib: "shred_cond_signal",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_cond_broadcast",
        shredlib: "shred_cond_broadcast",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_barrier_init",
        shredlib: "shred_barrier_init",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_barrier_wait",
        shredlib: "shred_barrier_wait",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_key_create",
        shredlib: "shred_local_alloc",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_setspecific",
        shredlib: "shred_local_set",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_getspecific",
        shredlib: "shred_local_get",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "sem_init",
        shredlib: "shred_sem_init",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "sem_wait",
        shredlib: "shred_sem_wait",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "sem_post",
        shredlib: "shred_sem_post",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Pthreads,
        legacy: "pthread_attr_setaffinity_np",
        shredlib: "shred_affinity_hint",
        mechanical: false,
    },
    // --- Win32 Threads -----------------------------------------------------
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "CreateThread",
        shredlib: "shred_create",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "_beginthreadex",
        shredlib: "shred_create",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "ExitThread",
        shredlib: "shred_exit",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "WaitForSingleObject",
        shredlib: "shred_join / shred_event_wait",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "WaitForMultipleObjects",
        shredlib: "shred_join_all",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "InitializeCriticalSection",
        shredlib: "shred_mutex_init",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "EnterCriticalSection",
        shredlib: "shred_mutex_lock",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "TryEnterCriticalSection",
        shredlib: "shred_mutex_trylock",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "LeaveCriticalSection",
        shredlib: "shred_mutex_unlock",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "CreateSemaphore",
        shredlib: "shred_sem_init",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "ReleaseSemaphore",
        shredlib: "shred_sem_post",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "CreateEvent",
        shredlib: "shred_event_init",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "SetEvent",
        shredlib: "shred_event_set",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "ResetEvent",
        shredlib: "shred_event_reset",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "TlsAlloc",
        shredlib: "shred_local_alloc",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "TlsSetValue",
        shredlib: "shred_local_set",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "TlsGetValue",
        shredlib: "shred_local_get",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "Sleep",
        shredlib: "shred_yield (loop)",
        mechanical: false,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "SetThreadPriority",
        shredlib: "scheduler policy hint",
        mechanical: false,
    },
    MappingEntry {
        api: LegacyApi::Win32,
        legacy: "GetMessage",
        shredlib: "native OS thread required",
        mechanical: false,
    },
    // --- OpenMP ------------------------------------------------------------
    MappingEntry {
        api: LegacyApi::OpenMp,
        legacy: "__kmp_fork_call",
        shredlib: "shred_create (per team member)",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::OpenMp,
        legacy: "__kmp_join_call",
        shredlib: "shred_barrier_wait",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::OpenMp,
        legacy: "omp_get_thread_num",
        shredlib: "shred_self",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::OpenMp,
        legacy: "omp_get_num_threads",
        shredlib: "sequencer_count",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::OpenMp,
        legacy: "omp_set_lock",
        shredlib: "shred_mutex_lock",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::OpenMp,
        legacy: "omp_unset_lock",
        shredlib: "shred_mutex_unlock",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::OpenMp,
        legacy: "#pragma omp parallel",
        shredlib: "shredded team region",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::OpenMp,
        legacy: "#pragma omp critical",
        shredlib: "shred_mutex pair",
        mechanical: true,
    },
    MappingEntry {
        api: LegacyApi::OpenMp,
        legacy: "#pragma omp barrier",
        shredlib: "shred_barrier_wait",
        mechanical: true,
    },
];

/// Coverage of one application's legacy API usage by the ShredLib mapping.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Functions translated mechanically (header + recompile).
    pub mechanical: Vec<&'static str>,
    /// Functions with a mapping that needs structural attention.
    pub structural: Vec<String>,
    /// Functions with no mapping at all.
    pub unmapped: Vec<String>,
}

impl CoverageReport {
    /// Total number of API uses analysed.
    #[must_use]
    pub fn total(&self) -> usize {
        self.mechanical.len() + self.structural.len() + self.unmapped.len()
    }

    /// Fraction of uses that port mechanically, in `[0, 1]`.
    #[must_use]
    pub fn mechanical_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 1.0;
        }
        self.mechanical.len() as f64 / self.total() as f64
    }
}

/// Looks up the ShredLib primitive a legacy function maps to.
#[must_use]
pub fn lookup(function: &str) -> Option<&'static MappingEntry> {
    MAPPINGS.iter().find(|m| m.legacy == function)
}

/// All mapping entries for one API family.
#[must_use]
pub fn entries(api: LegacyApi) -> Vec<&'static MappingEntry> {
    MAPPINGS.iter().filter(|m| m.api == api).collect()
}

/// Analyses an application's list of legacy API uses and reports how much of
/// it the thread-to-shred mapping covers.
#[must_use]
pub fn coverage<'a>(functions: impl IntoIterator<Item = &'a str>) -> CoverageReport {
    let mut report = CoverageReport {
        mechanical: Vec::new(),
        structural: Vec::new(),
        unmapped: Vec::new(),
    };
    for f in functions {
        match lookup(f) {
            Some(entry) if entry.mechanical => report.mechanical.push(entry.legacy),
            Some(entry) => report.structural.push(entry.legacy.to_string()),
            None => report.unmapped.push(f.to_string()),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pthread_core_functions_are_mapped() {
        for f in [
            "pthread_create",
            "pthread_join",
            "pthread_mutex_lock",
            "pthread_cond_wait",
            "sem_post",
            "pthread_barrier_wait",
        ] {
            let entry = lookup(f).unwrap_or_else(|| panic!("{f} must be mapped"));
            assert!(entry.mechanical, "{f} should be a mechanical translation");
            assert!(entry.shredlib.starts_with("shred"));
        }
    }

    #[test]
    fn win32_and_openmp_families_are_populated() {
        assert!(entries(LegacyApi::Win32).len() >= 15);
        assert!(entries(LegacyApi::OpenMp).len() >= 8);
        assert!(entries(LegacyApi::Pthreads).len() >= 20);
        assert_eq!(LegacyApi::all().len(), 3);
    }

    #[test]
    fn coverage_classifies_uses() {
        let report = coverage([
            "pthread_create",
            "pthread_mutex_lock",
            "GetMessage",
            "my_custom_pool_api",
        ]);
        assert_eq!(report.mechanical.len(), 2);
        assert_eq!(report.structural, vec!["GetMessage".to_string()]);
        assert_eq!(report.unmapped, vec!["my_custom_pool_api".to_string()]);
        assert_eq!(report.total(), 4);
        assert!((report.mechanical_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_coverage_is_fully_mechanical() {
        let report = coverage(std::iter::empty());
        assert_eq!(report.total(), 0);
        assert_eq!(report.mechanical_fraction(), 1.0);
    }

    #[test]
    fn unknown_function_lookup_is_none() {
        assert!(lookup("CreateFiber").is_none());
    }
}
