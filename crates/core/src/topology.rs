//! MISP machine topologies.

use misp_types::{MispError, MispProcessorId, Result, SequencerId};
use serde::{Deserialize, Serialize};

/// One MISP processor: an OS-managed sequencer plus its application-managed
/// sequencers.  To the OS the whole group appears as a single logical CPU.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MispProcessor {
    id: MispProcessorId,
    oms: SequencerId,
    ams: Vec<SequencerId>,
}

impl MispProcessor {
    /// The OS-managed sequencer.
    #[must_use]
    pub fn oms(&self) -> SequencerId {
        self.oms
    }

    /// The application-managed sequencers (possibly empty: a MISP processor
    /// with zero AMSs is an ordinary single-sequencer CPU).
    #[must_use]
    pub fn ams(&self) -> &[SequencerId] {
        &self.ams
    }

    /// All sequencers of this processor, the OMS first.
    #[must_use]
    pub fn sequencers(&self) -> Vec<SequencerId> {
        let mut v = Vec::with_capacity(1 + self.ams.len());
        v.push(self.oms);
        v.extend_from_slice(&self.ams);
        v
    }

    /// Returns `true` if `seq` belongs to this processor.
    #[must_use]
    pub fn contains(&self, seq: SequencerId) -> bool {
        self.oms == seq || self.ams.contains(&seq)
    }
}

/// The sequencer topology of a MISP machine: one or more MISP processors.
///
/// Sequencer identifiers are assigned densely in processor order, OMS first
/// within each processor, so the machine's total sequencer count equals the
/// highest identifier plus one.
///
/// The named constructors cover the configurations evaluated in the paper:
/// [`MispTopology::uniprocessor`] for the Figure 4 machine (1 OMS + 7 AMS) and
/// [`MispTopology::uniform`] / [`MispTopology::uneven`] for the multiprocessor
/// configurations of Figures 6 and 7 (4×2, 2×4, 1×8 and 1×4+4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MispTopology {
    processors: Vec<MispProcessor>,
}

impl MispTopology {
    /// Builds a topology from a list of per-processor AMS counts.
    ///
    /// `ams_counts[i]` is the number of AMSs of processor `i`; every processor
    /// always has exactly one OMS.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::InvalidConfiguration`] if `ams_counts` is empty.
    pub fn uneven(ams_counts: &[usize]) -> Result<Self> {
        if ams_counts.is_empty() {
            return Err(MispError::InvalidConfiguration(
                "a MISP machine needs at least one processor".to_string(),
            ));
        }
        let mut processors = Vec::with_capacity(ams_counts.len());
        let mut next_seq = 0u32;
        for (i, &ams_count) in ams_counts.iter().enumerate() {
            let oms = SequencerId::new(next_seq);
            let first_ams = next_seq + 1;
            let ams: Vec<SequencerId> = (first_ams..first_ams + ams_count as u32)
                .map(SequencerId::new)
                .collect();
            next_seq = first_ams + ams_count as u32;
            processors.push(MispProcessor {
                id: MispProcessorId::new(i as u32),
                oms,
                ams,
            });
        }
        Ok(MispTopology { processors })
    }

    /// A machine of `processors` identical MISP processors with
    /// `ams_per_processor` AMSs each.
    ///
    /// # Errors
    ///
    /// Returns [`MispError::InvalidConfiguration`] if `processors` is zero.
    pub fn uniform(processors: usize, ams_per_processor: usize) -> Result<Self> {
        if processors == 0 {
            return Err(MispError::InvalidConfiguration(
                "a MISP machine needs at least one processor".to_string(),
            ));
        }
        Self::uneven(&vec![ams_per_processor; processors])
    }

    /// A MISP uniprocessor with one OMS and `ams` AMSs (Figure 1 uses 3, the
    /// Figure 4 evaluation uses 7).
    ///
    /// # Errors
    ///
    /// Never fails in practice; the `Result` keeps the constructor signature
    /// uniform with the other topology builders.
    pub fn uniprocessor(ams: usize) -> Result<Self> {
        Self::uniform(1, ams)
    }

    /// The 4×2 configuration of Figures 6 and 7: four MISP processors, each
    /// with one OMS and one AMS.
    #[must_use]
    pub fn config_4x2() -> Self {
        Self::uniform(4, 1).expect("static configuration is valid")
    }

    /// The 2×4 configuration of Figures 6 and 7: two MISP processors, each
    /// with one OMS and three AMSs.
    #[must_use]
    pub fn config_2x4() -> Self {
        Self::uniform(2, 3).expect("static configuration is valid")
    }

    /// The 1×8 configuration of Figures 6 and 7: one MISP processor with one
    /// OMS and seven AMSs.
    #[must_use]
    pub fn config_1x8() -> Self {
        Self::uniform(1, 7).expect("static configuration is valid")
    }

    /// The uneven `1×(1+ams) + singles` configurations of Figures 6 and 7: one
    /// MISP processor with `ams` AMSs plus `singles` single-sequencer
    /// processors (OMS only).  `config_uneven(3, 4)` is the paper's 1×4+4.
    #[must_use]
    pub fn config_uneven(ams: usize, singles: usize) -> Self {
        let mut counts = vec![ams];
        counts.extend(std::iter::repeat_n(0, singles));
        Self::uneven(&counts).expect("static configuration is valid")
    }

    /// The MISP processors of this machine.
    #[must_use]
    pub fn processors(&self) -> &[MispProcessor] {
        &self.processors
    }

    /// Total number of sequencers across all processors.
    #[must_use]
    pub fn total_sequencers(&self) -> usize {
        self.processors.iter().map(|p| 1 + p.ams.len()).sum()
    }

    /// Total number of AMSs across all processors.
    #[must_use]
    pub fn total_ams(&self) -> usize {
        self.processors.iter().map(|p| p.ams.len()).sum()
    }

    /// The index (within [`MispTopology::processors`]) of the processor that
    /// `seq` belongs to.
    #[must_use]
    pub fn processor_index_of(&self, seq: SequencerId) -> Option<usize> {
        self.processors.iter().position(|p| p.contains(seq))
    }

    /// All OMSs, in processor order (these are the CPUs the OS sees).
    #[must_use]
    pub fn all_oms(&self) -> Vec<SequencerId> {
        self.processors.iter().map(|p| p.oms).collect()
    }

    /// A short human-readable description, e.g. `"2x(1+3)"` for the 2×4
    /// configuration.
    #[must_use]
    pub fn describe(&self) -> String {
        let counts: Vec<usize> = self.processors.iter().map(|p| p.ams.len()).collect();
        if counts.iter().all(|c| *c == counts[0]) {
            format!("{}x(1+{})", counts.len(), counts[0])
        } else {
            let parts: Vec<String> = counts.iter().map(|c| format!("1+{c}")).collect();
            parts.join(" , ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniprocessor_matches_paper_figure1() {
        let t = MispTopology::uniprocessor(3).unwrap();
        assert_eq!(t.total_sequencers(), 4);
        assert_eq!(t.total_ams(), 3);
        let p = &t.processors()[0];
        assert_eq!(p.oms(), SequencerId::new(0));
        assert_eq!(
            p.ams(),
            &[
                SequencerId::new(1),
                SequencerId::new(2),
                SequencerId::new(3)
            ]
        );
        assert_eq!(p.sequencers().len(), 4);
        assert!(p.contains(SequencerId::new(2)));
        assert!(!p.contains(SequencerId::new(4)));
    }

    #[test]
    fn sequencer_ids_are_dense_and_unique_across_processors() {
        let t = MispTopology::uniform(3, 2).unwrap();
        let mut all: Vec<u32> = t
            .processors()
            .iter()
            .flat_map(|p| p.sequencers())
            .map(|s| s.index())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<u32>>());
    }

    #[test]
    fn named_configurations_have_eight_sequencers() {
        assert_eq!(MispTopology::config_4x2().total_sequencers(), 8);
        assert_eq!(MispTopology::config_2x4().total_sequencers(), 8);
        assert_eq!(MispTopology::config_1x8().total_sequencers(), 8);
        assert_eq!(MispTopology::config_uneven(3, 4).total_sequencers(), 8);
        assert_eq!(MispTopology::config_4x2().describe(), "4x(1+1)");
        assert_eq!(MispTopology::config_1x8().describe(), "1x(1+7)");
    }

    #[test]
    fn uneven_configuration_structure() {
        let t = MispTopology::config_uneven(3, 4);
        assert_eq!(t.processors().len(), 5);
        assert_eq!(t.processors()[0].ams().len(), 3);
        for p in &t.processors()[1..] {
            assert!(p.ams().is_empty());
        }
        assert!(t.describe().contains("1+3"));
    }

    #[test]
    fn role_queries() {
        let t = MispTopology::uniform(2, 1).unwrap();
        // Layout: P0 = {0 oms, 1 ams}, P1 = {2 oms, 3 ams}.
        assert_eq!(t.processors()[0].ams(), [SequencerId::new(1)]);
        assert_eq!(t.processors()[1].ams(), [SequencerId::new(3)]);
        assert_eq!(t.processor_index_of(SequencerId::new(3)), Some(1));
        assert_eq!(t.processor_index_of(SequencerId::new(9)), None);
        assert_eq!(t.all_oms(), vec![SequencerId::new(0), SequencerId::new(2)]);
    }

    #[test]
    fn empty_configuration_is_rejected() {
        assert!(MispTopology::uneven(&[]).is_err());
        assert!(MispTopology::uniform(0, 3).is_err());
    }

    #[test]
    fn zero_ams_processor_is_allowed() {
        let t = MispTopology::uniprocessor(0).unwrap();
        assert_eq!(t.total_sequencers(), 1);
        assert_eq!(t.total_ams(), 0);
    }
}
