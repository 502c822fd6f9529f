//! The 5-port virtual-channel wormhole router (paper Fig. 1).
//!
//! Pipeline: route computation (XY) and VC allocation for head flits,
//! separable input-first switch allocation, then switch + link traversal.
//! Flow control is credit-based; each input port carries `vcs` virtual
//! channels of `buffer_depth` flits (the paper's router: 4 VCs, 16
//! buffers per port).
//!
//! # Data layout
//!
//! Each VC is a *slot*, `port * vcs + vc`, and every per-VC array is
//! indexed by slot. All input buffers share one flit ring store of
//! `5 · vcs · buffer_depth` flits, allocated once: slot `s` owns the
//! `buffer_depth` entries from `s · buffer_depth` and keeps its own head
//! and length. Three bitsets over the slots (one bit per slot, 64 slots
//! per word, the three words of a 64-slot block stored side by side)
//! track what the pipeline needs:
//!
//! - `occupied`: the input VC holds a flit. `accept` sets the bit; the
//!   switch-traversal pop that empties the VC clears it.
//! - `allocated`: the input VC holds a downstream VC (and so a route).
//!   VC allocation sets it; the departing tail clears it.
//! - `busy`, over output VCs: a packet owns the downstream VC.
//!
//! # Why walking set bits keeps every decision
//!
//! A full scan visits slots in ascending order and skips those with
//! nothing to do. Walking a word's set bits lowest first
//! (`trailing_zeros`) visits the same slots in the same order and skips
//! exactly those, so no arbitration decision moves:
//!
//! - Route computation and the VA requester list need an occupied VC
//!   without a downstream VC (`occupied & !allocated`). The requester
//!   list, and so the VA round robin that indexes it, is unchanged.
//! - Switch allocation needs an occupied, allocated VC whose downstream
//!   VC has a credit. A port nominates its first such VC at or after its
//!   pointer, else its first such VC: the VC a circular scan from the
//!   pointer reaches first. A port without one leaves its pointer
//!   alone, as the scan did. The output arbiter visits the nominating
//!   ports in round-robin order from its pointer (the 5-bit nomination
//!   mask rotated by it); the ports it skips had nothing to nominate.
//! - The busy search for a free downstream VC looks for the lowest clear
//!   bit of the output port's range, the VC a scan would take.

use crate::packet::Flit;
use crate::power::DatapathKind;
use crate::topology::{Coord, Direction, Mesh};
use srlr_units::Frequency;

/// Network configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Mesh columns.
    pub cols: u16,
    /// Mesh rows.
    pub rows: u16,
    /// Virtual channels per input port.
    pub vcs: usize,
    /// Buffer slots per VC (flits).
    pub buffer_depth: usize,
    /// Datapath width in bits.
    pub flit_bits: usize,
    /// Packet length in flits.
    pub packet_len: usize,
    /// Router clock.
    pub clock: Frequency,
    /// Physical datapath implementation (energy model).
    pub datapath: DatapathKind,
    /// Extra pipeline cycles per hop beyond the single-cycle router +
    /// single-cycle link baseline (0 models an aggressively bypassed
    /// router; 1 gives the paper's 3-stage pipeline).
    pub extra_pipeline: u64,
    /// Routing algorithm.
    pub routing: crate::routing::RoutingAlgorithm,
    /// Traffic RNG seed.
    pub seed: u64,
    /// Link fault injection and retransmission; `None` simulates ideal
    /// error-free links (and costs nothing).
    pub fault: Option<crate::fault::FaultConfig>,
}

impl NocConfig {
    /// The paper's configuration: 8x8 mesh of 64-bit, 5-port routers with
    /// 4 VCs and 16 buffers per port, 1 GHz clock, SRLR datapath.
    pub fn paper_default() -> Self {
        Self {
            cols: 8,
            rows: 8,
            vcs: 4,
            buffer_depth: 4,
            flit_bits: 64,
            packet_len: 5,
            clock: Frequency::from_gigahertz(1.0),
            datapath: DatapathKind::SrlrLowSwing,
            extra_pipeline: 0,
            routing: crate::routing::RoutingAlgorithm::Xy,
            seed: 42,
            fault: None,
        }
    }

    /// Returns a copy with a different routing algorithm.
    #[must_use]
    pub fn with_routing(mut self, routing: crate::routing::RoutingAlgorithm) -> Self {
        self.routing = routing;
        self
    }

    /// Returns a copy with extra per-hop pipeline cycles.
    #[must_use]
    pub fn with_extra_pipeline(mut self, extra_pipeline: u64) -> Self {
        self.extra_pipeline = extra_pipeline;
        self
    }

    /// Returns a copy with a different mesh size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn with_size(mut self, cols: u16, rows: u16) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be non-zero");
        self.cols = cols;
        self.rows = rows;
        self
    }

    /// Returns a copy with a different datapath implementation.
    #[must_use]
    pub fn with_datapath(mut self, datapath: DatapathKind) -> Self {
        self.datapath = datapath;
        self
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different packet length (flits).
    ///
    /// # Panics
    ///
    /// Panics if `packet_len` is zero.
    #[must_use]
    pub fn with_packet_len(mut self, packet_len: usize) -> Self {
        assert!(packet_len > 0, "packets need at least one flit");
        self.packet_len = packet_len;
        self
    }

    /// Returns a copy with the given link fault model.
    #[must_use]
    pub fn with_faults(mut self, fault: crate::fault::FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Returns a copy whose links flip bits at `ber` under the default
    /// retransmission protocol (shorthand for
    /// `with_faults(FaultConfig::new(ber))`).
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1)`.
    #[must_use]
    pub fn with_ber(self, ber: f64) -> Self {
        self.with_faults(crate::fault::FaultConfig::new(ber))
    }

    /// The mesh described by this configuration.
    pub fn mesh(&self) -> Mesh {
        Mesh::new(self.cols, self.rows)
    }

    /// Validates the structural parameters.
    ///
    /// # Panics
    ///
    /// Panics if VCs or buffer depth are zero, or the flit width is zero.
    pub fn validate(&self) {
        assert!(self.vcs > 0, "need at least one VC");
        assert!(self.buffer_depth > 0, "need at least one buffer slot");
        assert!(self.flit_bits > 0, "flit width must be non-zero");
        assert!(self.packet_len > 0, "packets need at least one flit");
        if let Some(fault) = &self.fault {
            fault.validate();
        }
    }
}

/// Per-VC input state: the VC's window of the router's flit ring and
/// the pipeline state of the packet at its front.
#[derive(Debug, Clone, Copy)]
struct VcState {
    /// Ring offset of the front flit within the VC's window.
    head: usize,
    /// Flits buffered.
    len: usize,
    /// Output port assigned by route computation (None until RC).
    route: Option<Direction>,
    /// The output-VC slot (`route * vcs + downstream VC`) granted by VC
    /// allocation; meaningful only while the VC is in the router's
    /// `allocated` slot set.
    out_slot: usize,
}

/// A flit leaving the router this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentFlit {
    /// The flit itself.
    pub flit: Flit,
    /// Output port it left through.
    pub out_port: Direction,
    /// Downstream VC it was sent on.
    pub out_vc: usize,
    /// Input port it was buffered at.
    pub in_port: Direction,
    /// Input VC it was buffered at.
    pub in_vc: usize,
}

/// The flits one router sends in one cycle: at most one per output
/// port, held inline so a router step never touches the heap. Derefs
/// to a slice in switch-grant order.
#[derive(Debug, Clone, Copy)]
pub struct SentFlits {
    len: usize,
    slots: [SentFlit; 5],
}

/// Contents of an unused flit slot; never observable.
const PLACEHOLDER_FLIT: Flit = Flit {
    packet: crate::packet::PacketId(0),
    kind: crate::packet::FlitKind::HeadTail,
    dst: Coord { x: 0, y: 0 },
    inject_cycle: 0,
    payload: 0,
    crc: 0,
};

impl SentFlits {
    /// An empty set.
    pub fn new() -> Self {
        const EMPTY: SentFlit = SentFlit {
            flit: PLACEHOLDER_FLIT,
            out_port: Direction::Local,
            out_vc: 0,
            in_port: Direction::Local,
            in_vc: 0,
        };
        Self {
            len: 0,
            slots: [EMPTY; 5],
        }
    }
}

impl Default for SentFlits {
    fn default() -> Self {
        Self::new()
    }
}

impl core::ops::Deref for SentFlits {
    type Target = [SentFlit];

    fn deref(&self) -> &[SentFlit] {
        &self.slots[..self.len]
    }
}

/// Switch-allocation / VC-allocation activity of one cycle, for the
/// control-logic power model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Route computations performed.
    pub route_computations: usize,
    /// VC allocation grants.
    pub vc_allocations: usize,
    /// Switch allocation grants (= flits traversing).
    pub switch_allocations: usize,
}

/// `i + 1`, wrapped to 0 at `n` (a round-robin advance without a
/// division).
fn wrap_next(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

/// Slots per bitset word.
const WORD_BITS: usize = u64::BITS as usize;

/// The router's three VC-slot sets over 64 consecutive slots, one bit
/// per slot, kept side by side so one cache line serves them all.
#[derive(Debug, Clone, Copy, Default)]
struct SlotWord {
    /// Input VCs holding at least one flit.
    occupied: u64,
    /// Input VCs holding a downstream VC (so also a route).
    allocated: u64,
    /// Output VCs owned by a packet.
    busy: u64,
}

/// The word index and bit of `slot` in a `SlotWord` vector.
fn slot_bit(slot: usize) -> (usize, u64) {
    (slot / WORD_BITS, 1 << (slot % WORD_BITS))
}

/// The lowest slot in `lo..hi` whose bit is set in `word(w)`, the `w`-th
/// word of a bitset expression over slot sets.
fn first_set(lo: usize, hi: usize, word: impl Fn(usize) -> u64) -> Option<usize> {
    let mut at = lo;
    while at < hi {
        let bit = at % WORD_BITS;
        let span = (hi - at).min(WORD_BITS - bit);
        let found = (word(at / WORD_BITS) >> bit) & (u64::MAX >> (WORD_BITS - span));
        if found != 0 {
            return Some(at + found.trailing_zeros() as usize);
        }
        at += span;
    }
    None
}

/// One 5-port mesh router.
///
/// Every per-VC array is flat, indexed by the slot `port * vcs + vc`.
#[derive(Debug, Clone)]
pub struct Router {
    coord: Coord,
    vcs: usize,
    buffer_depth: usize,
    routing: crate::routing::RoutingAlgorithm,
    /// Input state.
    inputs: Vec<VcState>,
    /// Every VC buffer in one ring store: slot `s` owns the
    /// `buffer_depth` entries from `s * buffer_depth`.
    flits: Vec<Flit>,
    /// Occupied and allocated input VCs and busy output VCs.
    slot_words: Vec<SlotWord>,
    /// Flits buffered across all inputs; an empty router skips the
    /// pipeline.
    buffered: usize,
    /// Credits available at the downstream buffer of each output VC.
    /// The Local output is an always-ready sink: its entries are never
    /// spent, so they stay positive.
    out_credits: Vec<usize>,
    /// This cycle's VC-allocation requesters (input slots, ascending);
    /// sized once, written by position.
    va_requesters: Vec<usize>,
    /// Round-robin pointers: VA (a cycle counter, reduced modulo the
    /// requester count), per-input-port SA (a VC in `0..vcs`) and
    /// output SA (a port in `0..5`).
    rr_va: usize,
    rr_sa_in: [usize; 5],
    rr_sa_out: usize,
}

impl Router {
    /// Creates an idle router at `coord`.
    pub fn new(coord: Coord, config: &NocConfig) -> Self {
        config.validate();
        let slots = Direction::ALL.len() * config.vcs;
        Self {
            coord,
            vcs: config.vcs,
            buffer_depth: config.buffer_depth,
            routing: config.routing,
            inputs: vec![
                VcState {
                    head: 0,
                    len: 0,
                    route: None,
                    out_slot: 0,
                };
                slots
            ],
            flits: vec![PLACEHOLDER_FLIT; slots * config.buffer_depth],
            slot_words: vec![SlotWord::default(); slots.div_ceil(WORD_BITS)],
            buffered: 0,
            out_credits: vec![config.buffer_depth; slots],
            va_requesters: vec![0; slots],
            rr_va: 0,
            rr_sa_in: [0; 5],
            rr_sa_out: 0,
        }
    }

    /// The router's mesh coordinate.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Free buffer slots at an input VC.
    pub fn free_slots(&self, port: Direction, vc: usize) -> usize {
        self.buffer_depth - self.inputs[port.index() * self.vcs + vc].len
    }

    /// Total buffered flits across all inputs (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.buffered
    }

    /// The packets with at least one flit buffered in this router (with
    /// repetitions; used to report the in-flight set of a stalled run).
    pub fn buffered_packets(&self) -> impl Iterator<Item = crate::packet::PacketId> + '_ {
        let depth = self.buffer_depth;
        self.inputs.iter().enumerate().flat_map(move |(slot, v)| {
            (0..v.len).map(move |k| self.flits[slot * depth + (v.head + k) % depth].packet)
        })
    }

    /// Accepts a flit into an input VC buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — the upstream credit loop must make
    /// that impossible; a panic here means a flow-control bug.
    pub fn accept(&mut self, port: Direction, vc: usize, flit: Flit) {
        let slot = port.index() * self.vcs + vc;
        let depth = self.buffer_depth;
        let state = &mut self.inputs[slot];
        assert!(
            state.len < depth,
            "buffer overflow at {} port {port} vc {vc}: credit protocol violated",
            self.coord
        );
        let mut at = state.head + state.len;
        if at >= depth {
            at -= depth;
        }
        self.flits[slot * depth + at] = flit;
        state.len += 1;
        let (w, bit) = slot_bit(slot);
        self.slot_words[w].occupied |= bit;
        self.buffered += 1;
    }

    /// Returns one credit for an output VC (the downstream router freed a
    /// slot).
    pub fn return_credit(&mut self, port: Direction, vc: usize) {
        let c = &mut self.out_credits[port.index() * self.vcs + vc];
        *c += 1;
        debug_assert!(*c <= self.buffer_depth, "credit overflow");
    }

    /// Downstream credits summed over an output port's VCs (the
    /// adaptive route choice's congestion estimate).
    fn port_credits(&self, port: Direction) -> usize {
        let base = port.index() * self.vcs;
        self.out_credits[base..base + self.vcs].iter().sum()
    }

    /// Executes one cycle of the router pipeline: writes the flits sent
    /// into `sent` (replacing its contents) and returns the allocation
    /// activity (for power accounting). Allocates nothing; an empty
    /// router only advances its output arbiter.
    pub fn step(&mut self, mesh: Mesh, sent: &mut SentFlits) -> RouterActivity {
        sent.len = 0;
        let mut activity = RouterActivity::default();
        if self.buffered == 0 {
            self.rr_sa_out = wrap_next(self.rr_sa_out, Direction::ALL.len());
            return activity;
        }
        let vcs = self.vcs;
        let depth = self.buffer_depth;

        // --- RC: heads at the front of an unrouted VC compute their
        // port. Every routed VC still waiting for a downstream VC then
        // joins this cycle's VA requesters. Only occupied VCs without a
        // downstream VC have work here; they are visited in ascending
        // slot order.
        let mut requesters = 0;
        for w in 0..self.slot_words.len() {
            let word = self.slot_words[w];
            let mut bits = word.occupied & !word.allocated;
            while bits != 0 {
                let slot = w * WORD_BITS + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let state = self.inputs[slot];
                if state.route.is_none() {
                    let front = &self.flits[slot * depth + state.head];
                    if !front.kind.is_head() {
                        continue;
                    }
                    // Adaptive choice: prefer the candidate whose output
                    // column has the most downstream credits (a
                    // congestion-aware local greedy; ties go to the later
                    // candidate). A routing function always offers at
                    // least one port; an empty candidate set leaves the
                    // flit parked instead of panicking.
                    let dir = match *self.routing.candidates(mesh, self.coord, front.dst) {
                        [only] => only,
                        ref candidates => {
                            let Some(&dir) =
                                candidates.iter().max_by_key(|d| self.port_credits(**d))
                            else {
                                continue;
                            };
                            dir
                        }
                    };
                    self.inputs[slot].route = Some(dir);
                    activity.route_computations += 1;
                }
                self.va_requesters[requesters] = slot;
                requesters += 1;
            }
        }

        // --- VA: routed VCs without a downstream VC bid for one, in
        // round-robin order.
        if requesters > 0 {
            let mut k = self.rr_va % requesters;
            for _ in 0..requesters {
                let slot = self.va_requesters[k];
                k = wrap_next(k, requesters);
                let Some(out) = self.inputs[slot].route else {
                    continue; // requesters are routed by construction
                };
                let base = out.index() * vcs;
                // The Local output needs no VC ownership (ejection sink).
                let granted = if out == Direction::Local {
                    Some(base)
                } else {
                    let words = &self.slot_words;
                    first_set(base, base + vcs, |w| !words[w].busy)
                };
                if let Some(o) = granted {
                    if out != Direction::Local {
                        let (w, bit) = slot_bit(o);
                        self.slot_words[w].busy |= bit;
                    }
                    self.inputs[slot].out_slot = o;
                    let (w, bit) = slot_bit(slot);
                    self.slot_words[w].allocated |= bit;
                    activity.vc_allocations += 1;
                }
            }
            self.rr_va = self.rr_va.wrapping_add(1);
        }

        // --- SA, input-first: each input port nominates its first VC,
        // round robin from its pointer, that is allocated, holds a flit
        // and can send it. One ascending walk over the allocated, occupied
        // VCs finds it: a port's first sendable VC at or after the pointer
        // if it has one, else its first sendable VC...
        let ports = Direction::ALL.len();
        let mut nominees = [0usize; 5];
        let mut nominated = 0u32; // one bit per input port
        let (mut port, mut port_base) = (0, 0);
        for w in 0..self.slot_words.len() {
            let word = self.slot_words[w];
            let mut bits = word.occupied & word.allocated;
            while bits != 0 {
                let slot = w * WORD_BITS + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.out_credits[self.inputs[slot].out_slot] == 0 {
                    continue;
                }
                while slot >= port_base + vcs {
                    port += 1;
                    port_base += vcs;
                }
                let vc = slot - port_base;
                let pointer = self.rr_sa_in[port];
                if nominated & (1 << port) == 0 || (nominees[port] < pointer && vc >= pointer) {
                    nominees[port] = vc;
                    nominated |= 1 << port;
                }
            }
        }
        // ...then each output port grants one nomination, visiting the
        // nominating input ports round robin from the output pointer.
        let mut granted_outputs = 0u32;
        let mut winners = [(0usize, 0usize); 5];
        let mut won = 0;
        let first = self.rr_sa_out;
        let mut order = (nominated >> first | nominated << (ports - first)) & ((1 << ports) - 1);
        while order != 0 {
            let mut port = first + order.trailing_zeros() as usize;
            order &= order - 1;
            if port >= ports {
                port -= ports;
            }
            let vc = nominees[port];
            self.rr_sa_in[port] = wrap_next(vc, vcs);
            let Some(out) = self.inputs[port * vcs + vc].route else {
                continue; // nominees are routed by construction
            };
            if granted_outputs & (1 << out.index()) == 0 {
                granted_outputs |= 1 << out.index();
                winners[won] = (port, vc);
                won += 1;
            }
        }
        self.rr_sa_out = wrap_next(self.rr_sa_out, ports);

        // --- ST: winners move one flit each.
        for &(p, v) in &winners[..won] {
            let slot = p * vcs + v;
            let state = &mut self.inputs[slot];
            // Winners are routed, VC-allocated and non-empty by the SA
            // stage above; a violated invariant skips the grant instead of
            // aborting the simulation.
            let Some(out) = state.route else {
                continue;
            };
            if state.len == 0 {
                continue;
            }
            let o = state.out_slot;
            let flit = self.flits[slot * depth + state.head];
            state.head = wrap_next(state.head, depth);
            state.len -= 1;
            let (w, bit) = slot_bit(slot);
            if state.len == 0 {
                self.slot_words[w].occupied &= !bit;
            }
            self.buffered -= 1;
            if flit.kind.is_tail() {
                state.route = None;
                self.slot_words[w].allocated &= !bit;
            }
            if out != Direction::Local {
                self.out_credits[o] -= 1;
                if flit.kind.is_tail() {
                    let (w, bit) = slot_bit(o);
                    self.slot_words[w].busy &= !bit;
                }
            }
            activity.switch_allocations += 1;
            sent.slots[sent.len] = SentFlit {
                flit,
                out_port: out,
                out_vc: o - out.index() * vcs,
                in_port: Direction::ALL[p],
                in_vc: v,
            };
            sent.len += 1;
        }
        activity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketId};

    fn config() -> NocConfig {
        NocConfig::paper_default().with_size(4, 4)
    }

    fn step(r: &mut Router, mesh: Mesh) -> (SentFlits, RouterActivity) {
        let mut sent = SentFlits::new();
        let activity = r.step(mesh, &mut sent);
        (sent, activity)
    }

    fn head_tail_flit(dst: Coord) -> Flit {
        Packet::unicast(PacketId(1), Coord::new(0, 0), dst, 1, 0).flits(dst)[0]
    }

    #[test]
    fn flit_routes_and_leaves_in_one_pass() {
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        r.accept(Direction::West, 0, head_tail_flit(Coord::new(3, 1)));
        let (sent, act) = step(&mut r, mesh);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].out_port, Direction::East);
        assert_eq!(act.route_computations, 1);
        assert_eq!(act.vc_allocations, 1);
        assert_eq!(act.switch_allocations, 1);
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn local_destination_ejects() {
        let cfg = config();
        let mut r = Router::new(Coord::new(2, 2), &cfg);
        r.accept(Direction::North, 1, head_tail_flit(Coord::new(2, 2)));
        let (sent, _) = step(&mut r, cfg.mesh());
        assert_eq!(sent[0].out_port, Direction::Local);
    }

    #[test]
    fn credits_gate_transmission() {
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        // Exhaust all credits on the East output for every VC.
        for vc in 0..cfg.vcs {
            r.out_credits[Direction::East.index() * cfg.vcs + vc] = 0;
        }
        r.accept(Direction::West, 0, head_tail_flit(Coord::new(3, 1)));
        let (sent, _) = step(&mut r, mesh);
        assert!(sent.is_empty(), "no credits, nothing may leave");
        // Returning a credit unblocks it.
        r.return_credit(Direction::East, 0);
        let (sent, _) = step(&mut r, mesh);
        assert_eq!(sent.len(), 1);
    }

    #[test]
    fn one_flit_per_output_per_cycle() {
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        // Two flits from different inputs, both heading East.
        r.accept(Direction::West, 0, head_tail_flit(Coord::new(3, 1)));
        r.accept(Direction::North, 0, head_tail_flit(Coord::new(3, 1)));
        let (sent, _) = step(&mut r, mesh);
        assert_eq!(sent.len(), 1, "the East port can carry one flit/cycle");
        let (sent, _) = step(&mut r, mesh);
        assert_eq!(sent.len(), 1, "the loser goes next cycle");
    }

    #[test]
    fn different_outputs_proceed_in_parallel() {
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        r.accept(Direction::West, 0, head_tail_flit(Coord::new(3, 1))); // East
        r.accept(Direction::North, 0, head_tail_flit(Coord::new(1, 0))); // South
        let (sent, _) = step(&mut r, mesh);
        assert_eq!(sent.len(), 2);
    }

    #[test]
    fn wormhole_keeps_packet_contiguous_on_vc() {
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        let pkt = Packet::unicast(PacketId(9), Coord::new(0, 1), Coord::new(3, 1), 3, 0);
        for f in pkt.flits(Coord::new(3, 1)) {
            r.accept(Direction::West, 2, f);
        }
        let mut kinds = Vec::new();
        for _ in 0..4 {
            let (sent, _) = step(&mut r, mesh);
            for s in sent.iter() {
                kinds.push(s.flit.kind);
            }
        }
        use crate::packet::FlitKind::*;
        assert_eq!(kinds, vec![Head, Body, Tail]);
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn buffer_overflow_panics() {
        let cfg = config();
        let mut r = Router::new(Coord::new(0, 0), &cfg);
        for _ in 0..=cfg.buffer_depth {
            r.accept(Direction::West, 0, head_tail_flit(Coord::new(3, 0)));
        }
    }

    #[test]
    fn tail_releases_downstream_vc() {
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        let dst = Coord::new(3, 1);
        let pkt = Packet::unicast(PacketId(5), Coord::new(0, 1), dst, 2, 0);
        for f in pkt.flits(dst) {
            r.accept(Direction::West, 0, f);
        }
        // Head leaves, allocating a downstream VC...
        let _ = step(&mut r, mesh);
        let east = Direction::East.index() * cfg.vcs;
        let east_busy = |r: &Router| first_set(east, east + cfg.vcs, |w| r.slot_words[w].busy);
        assert!(east_busy(&r).is_some());
        // ...tail leaves, releasing it.
        let _ = step(&mut r, mesh);
        assert!(east_busy(&r).is_none());
    }

    #[test]
    fn switch_arbitration_is_fair_between_inputs() {
        // Two inputs streaming to the same output must share it roughly
        // 50/50 under round-robin arbitration.
        let cfg = config();
        let mesh = cfg.mesh();
        let mut r = Router::new(Coord::new(1, 1), &cfg);
        let dst = Coord::new(3, 1);
        let mut from_west: i64 = 0;
        let mut from_north: i64 = 0;
        for round in 0..40 {
            // Keep both inputs loaded.
            if r.free_slots(Direction::West, 0) > 0 {
                r.accept(
                    Direction::West,
                    0,
                    Packet::unicast(PacketId(round * 2), Coord::new(0, 1), dst, 1, 0).flits(dst)[0],
                );
            }
            if r.free_slots(Direction::North, 0) > 0 {
                r.accept(
                    Direction::North,
                    0,
                    Packet::unicast(PacketId(round * 2 + 1), Coord::new(1, 2), dst, 1, 0)
                        .flits(dst)[0],
                );
            }
            let (sent, _) = step(&mut r, mesh);
            for s in sent.iter() {
                match s.in_port {
                    Direction::West => from_west += 1,
                    Direction::North => from_north += 1,
                    _ => {}
                }
                // Return the credit so the stream keeps flowing.
                r.return_credit(s.out_port, s.out_vc);
            }
        }
        let total = from_west + from_north;
        assert!(total >= 30, "arbitration starved the port: {total}");
        let imbalance = (from_west - from_north).abs();
        assert!(
            imbalance <= total / 4,
            "unfair split {from_west} vs {from_north}"
        );
    }

    #[test]
    fn config_validation() {
        let bad = NocConfig {
            vcs: 0,
            ..NocConfig::paper_default()
        };
        let result = std::panic::catch_unwind(|| bad.validate());
        assert!(result.is_err());
    }
}
