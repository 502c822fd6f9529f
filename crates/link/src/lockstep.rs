//! Lockstep stress harness: drives a set of uncertified links through
//! bit patterns in one [`DieBatch`], retiring a lane on its first
//! corrupted bit — the batched analogue of the scalar early exit in
//! [`SrlrLink::transmits_cleanly`](crate::link::SrlrLink::transmits_cleanly).
//!
//! The harness owns the per-lane verdicts so callers (Monte Carlo
//! batches, shmoo cells) only decide *which* links to load and *which*
//! patterns to run; the kill-on-error bookkeeping is identical either
//! way, which is what keeps both batched paths bit-identical to their
//! scalar references.
//!
//! Every check takes the caller's [`Profiler`]: each advanced slot is a
//! `bit_slot` frame and each retired lane bumps a `lane_kill` tally. A
//! disabled profiler costs one branch per call and never touches the
//! arithmetic, so the bit-identity contract is unaffected.

use crate::link::SrlrLink;
use srlr_core::DieBatch;
use srlr_telemetry::Profiler;

/// One [`DieBatch`] plus kill-on-error verdicts over its lanes.
pub(crate) struct Lockstep {
    batch: DieBatch,
    ok: Vec<bool>,
    tx: Vec<bool>,
    rx: Vec<bool>,
}

impl Lockstep {
    /// One lane per `(tag, link)` entry; the tags are the caller's
    /// business (typically indices back into its own result array).
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty.
    pub(crate) fn new(links: &[(usize, SrlrLink)]) -> Self {
        assert!(!links.is_empty(), "lockstep run needs at least one lane");
        let stages = links[0].1.chain().stages().len();
        let mut batch = DieBatch::new(stages, links.len());
        for (lane, (_, link)) in links.iter().enumerate() {
            batch.load_lane(
                lane,
                link.chain(),
                link.config().data_rate.bit_period(),
                link.config().demod_min_width,
            );
        }
        Self {
            batch,
            ok: vec![true; links.len()],
            tx: vec![false; links.len()],
            rx: vec![false; links.len()],
        }
    }

    /// Whether any lane is still unrefuted.
    pub(crate) fn any_contending(&self) -> bool {
        self.batch.any_alive()
    }

    /// Whether `lane` is still unrefuted.
    pub(crate) fn is_contending(&self, lane: usize) -> bool {
        self.batch.is_alive(lane)
    }

    /// Per-lane verdicts so far: `true` = no corrupted bit yet.
    pub(crate) fn verdicts(&self) -> &[bool] {
        &self.ok
    }

    /// Transmits `pattern` to every contending lane on a freshly
    /// drained link (matching one `transmits_cleanly` call per lane).
    pub(crate) fn check_shared(&mut self, pattern: &[bool], prof: &mut Profiler) {
        if !self.batch.any_alive() {
            return;
        }
        self.batch.reset_state();
        for &bit in pattern {
            self.tx.fill(bit);
            if self.step(prof) {
                break;
            }
        }
    }

    /// Fresh-link transmission with per-lane stimulus of `len` bits.
    /// `None` lanes are already retired; their tx bit is irrelevant
    /// (the batch skips dead lanes).
    pub(crate) fn check_per_lane(
        &mut self,
        bits: &[Option<Vec<bool>>],
        len: usize,
        prof: &mut Profiler,
    ) {
        if !self.batch.any_alive() {
            return;
        }
        self.batch.reset_state();
        for slot in 0..len {
            for (lane, lane_bits) in bits.iter().enumerate() {
                if let Some(lane_bits) = lane_bits {
                    self.tx[lane] = lane_bits[slot];
                }
            }
            if self.step(prof) {
                break;
            }
        }
    }

    /// One bit slot; returns `true` when every lane has been retired.
    fn step(&mut self, prof: &mut Profiler) -> bool {
        prof.enter("bit_slot");
        self.batch.advance_slot(&self.tx, &mut self.rx);
        prof.exit();
        for lane in 0..self.ok.len() {
            if self.batch.is_alive(lane) && self.rx[lane] != self.tx[lane] {
                self.ok[lane] = false;
                self.batch.kill_lane(lane);
                prof.count("lane_kill");
            }
        }
        !self.batch.any_alive()
    }
}
