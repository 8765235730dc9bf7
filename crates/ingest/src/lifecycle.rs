//! Trajectory lifecycle: id assignment, TTL expiry, batch assembly.
//!
//! Matched trajectories enter the served corpus through
//! [`UpdateOp::AddTrajectory`] batches and leave it again when their
//! time-to-live lapses ([`UpdateOp::RemoveTrajectory`]), keeping the
//! corpus a sliding window over the stream — the paper's dynamic-workload
//! setting (Sec. 6) driven end to end.
//!
//! Two invariants make this deterministic and therefore WAL-replayable:
//!
//! * **Id prediction** — `TrajectorySet` assigns dense ids in insertion
//!   order, and every `AddTrajectory` this manager emits is valid (its
//!   nodes came from the map matcher, so they are on-network). With the
//!   ingest publisher as the store's only writer, the id of the `k`-th
//!   emitted insert is exactly `base id_bound + k`; retire ops can name
//!   ids without ever reading them back from the store.
//! * **Stream-time TTL** — expiry is measured against the *stream clock*
//!   (the max end-of-trace timestamp seen so far), not the wall clock, so
//!   replaying the same records yields the same retire ops.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use netclus_service::UpdateOp;
use netclus_trajectory::{TrajId, Trajectory};

/// A pending expiry, ordered by time then id (min-heap via `Reverse`).
/// The time is stored as `f64::to_bits`, order-preserving for the
/// non-negative finite stream times the record decoder admits.
type Expiry = Reverse<(u64, u32)>;

/// The lifecycle manager. Single-owner (lives on the publisher thread).
#[derive(Debug)]
pub(crate) struct LifecycleManager {
    next_id: u32,
    ttl_s: Option<f64>,
    /// Stream clock: max end-of-trace time observed.
    watermark_s: f64,
    expiries: BinaryHeap<Expiry>,
}

impl LifecycleManager {
    /// Creates a manager issuing ids from `next_id` (the store's
    /// `id_bound` at attach time) with the given stream-time TTL
    /// (`None` = trajectories never expire).
    pub fn new(next_id: u32, ttl_s: Option<f64>) -> Self {
        if let Some(ttl) = ttl_s {
            assert!(ttl > 0.0 && ttl.is_finite(), "TTL must be positive");
        }
        LifecycleManager {
            next_id,
            ttl_s,
            watermark_s: f64::NEG_INFINITY,
            expiries: BinaryHeap::new(),
        }
    }

    /// Rebuilds a manager from state recovered out of the WAL: ids resume
    /// at `next_id`, the stream clock at `watermark_s` (pass
    /// `f64::NEG_INFINITY` when no add was ever published), and every
    /// live trajectory `(id, stream end time)` re-enters the expiry heap.
    /// Expiries are re-timed with the *current* `ttl_s` — changing the
    /// configured TTL across a restart deliberately re-times the
    /// survivors. Trajectories already overdue at `watermark_s` are
    /// retired by the first [`LifecycleManager::advance`] (their retire
    /// ops were lost with the crashed publisher's pending batch, exactly
    /// like any other un-appended work).
    pub(crate) fn resume(
        next_id: u32,
        ttl_s: Option<f64>,
        watermark_s: f64,
        live: impl IntoIterator<Item = (u32, f64)>,
    ) -> Self {
        let mut lm = Self::new(next_id, ttl_s);
        lm.watermark_s = watermark_s;
        if let Some(ttl) = lm.ttl_s {
            for (id, end_time_s) in live {
                lm.expiries
                    .push(Reverse(((end_time_s.max(0.0) + ttl).to_bits(), id)));
            }
        }
        lm
    }

    /// Admits a matched trajectory observed at stream time `end_time_s`:
    /// appends its insert op plus any retire ops that `end_time_s` makes
    /// due. Returns the id the insert will receive.
    pub fn admit(&mut self, traj: Trajectory, end_time_s: f64, ops: &mut Vec<UpdateOp>) -> TrajId {
        let id = TrajId(self.next_id);
        self.next_id += 1;
        ops.push(UpdateOp::AddTrajectory(traj));
        if let Some(ttl) = self.ttl_s {
            let expire_at = (end_time_s.max(0.0) + ttl).to_bits();
            self.expiries.push(Reverse((expire_at, id.0)));
        }
        self.advance(end_time_s, ops);
        id
    }

    /// Advances the stream clock to `time_s` (monotone; regressions are
    /// ignored — records arrive in intake order, so they come only from
    /// stream times that interleave across sources) and appends retire ops
    /// for every trajectory whose TTL has lapsed. Returns the retire count.
    pub fn advance(&mut self, time_s: f64, ops: &mut Vec<UpdateOp>) -> usize {
        if time_s > self.watermark_s {
            self.watermark_s = time_s;
        }
        let now = self.watermark_s.max(0.0).to_bits();
        let mut retired = 0;
        while let Some(&Reverse((at, id))) = self.expiries.peek() {
            if at > now {
                break;
            }
            self.expiries.pop();
            ops.push(UpdateOp::RemoveTrajectory(TrajId(id)));
            retired += 1;
        }
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_roadnet::NodeId;

    fn t(nodes: &[u32]) -> Trajectory {
        Trajectory::new(nodes.iter().map(|&n| NodeId(n)).collect())
    }

    #[test]
    fn ids_are_sequential_from_base() {
        let mut lm = LifecycleManager::new(5, None);
        let mut ops = Vec::new();
        assert_eq!(lm.admit(t(&[0, 1]), 10.0, &mut ops), TrajId(5));
        assert_eq!(lm.admit(t(&[1, 2]), 11.0, &mut ops), TrajId(6));
        assert_eq!(lm.next_id, 7);
        assert_eq!(ops.len(), 2, "no TTL → no retire ops");
    }

    #[test]
    fn ttl_retires_in_insertion_time_order() {
        let mut lm = LifecycleManager::new(0, Some(100.0));
        let mut ops = Vec::new();
        lm.admit(t(&[0]), 0.0, &mut ops); // expires at 100
        lm.admit(t(&[1]), 50.0, &mut ops); // expires at 150
        assert_eq!(lm.expiries.len(), 2);
        assert_eq!(lm.advance(99.0, &mut ops), 0);
        assert_eq!(lm.advance(120.0, &mut ops), 1);
        assert!(matches!(
            ops.last(),
            Some(UpdateOp::RemoveTrajectory(TrajId(0)))
        ));
        // A third insert at a late stream time retires the second.
        lm.admit(t(&[2]), 200.0, &mut ops);
        assert!(matches!(
            ops.last(),
            Some(UpdateOp::RemoveTrajectory(TrajId(1)))
        ));
        assert_eq!(lm.expiries.len(), 1);
    }

    #[test]
    fn stream_clock_never_regresses() {
        let mut lm = LifecycleManager::new(0, Some(10.0));
        let mut ops = Vec::new();
        lm.admit(t(&[0]), 100.0, &mut ops); // expires at 110
                                            // An out-of-order record with an older end time must not unexpire
                                            // anything or move the clock backwards.
        assert_eq!(lm.advance(5.0, &mut ops), 0);
        assert_eq!(lm.advance(110.0, &mut ops), 1);
    }

    #[test]
    #[should_panic(expected = "TTL must be positive")]
    fn zero_ttl_rejected() {
        LifecycleManager::new(0, Some(0.0));
    }

    #[test]
    fn resume_restores_clock_ids_and_expiries() {
        // Two live trajectories recovered from the WAL: id 3 ended at 0,
        // id 5 at 40; stream clock last seen at 50.
        let mut lm = LifecycleManager::resume(7, Some(100.0), 50.0, vec![(3, 0.0), (5, 40.0)]);
        assert_eq!(lm.next_id, 7);
        assert_eq!(lm.expiries.len(), 2);
        let mut ops = Vec::new();
        // The resumed clock must not regress: an out-of-order record
        // below 50 changes nothing.
        assert_eq!(lm.advance(10.0, &mut ops), 0);
        assert_eq!(lm.advance(99.0, &mut ops), 0);
        // id 3 expires at 100, id 5 at 140.
        assert_eq!(lm.advance(100.0, &mut ops), 1);
        assert!(matches!(
            ops.last(),
            Some(UpdateOp::RemoveTrajectory(TrajId(3)))
        ));
        assert_eq!(lm.admit(t(&[9]), 200.0, &mut ops), TrajId(7));
        assert!(matches!(
            ops.last(),
            Some(UpdateOp::RemoveTrajectory(TrajId(5)))
        ));
        assert_eq!(lm.expiries.len(), 1);
    }
}
