//! Activity-based NoC power accounting.
//!
//! Two calibration anchors from the paper:
//!
//! * Sec. IV: a synthesized 64-bit 5-port router in the same process —
//!   input buffers 38.8 mW, control logic 5.2 mW, SRLR low-swing datapath
//!   12.9 mW (plus the shared 587 uW bias generator);
//! * Sec. I: the published mesh-NoC power splits of RAW, TRIPS and
//!   TeraFLOPS, which motivate attacking the physical datapath.
//!
//! The model charges energy per micro-architectural event (buffer write,
//! buffer read, allocator grant, flit hop over the datapath) so the same
//! constants produce power at *any* load, with the calibration point
//! reproducing the paper's numbers.

use srlr_link::baselines::FullSwingRepeatedLink;
use srlr_link::SrlrLink;
use srlr_tech::Technology;
use srlr_units::{Energy, EnergyPerBitLength, Frequency, Length, Power, TimeInterval};

/// Which physical datapath implementation the routers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatapathKind {
    /// The paper's SRLR low-swing crossbar + links.
    SrlrLowSwing,
    /// Conventional full-swing repeated wires.
    FullSwingRepeated,
}

impl core::fmt::Display for DatapathKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::SrlrLowSwing => f.write_str("SRLR low-swing"),
            Self::FullSwingRepeated => f.write_str("full-swing repeated"),
        }
    }
}

/// Event counters accumulated by the network simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCounters {
    /// Flits written into input buffers.
    pub buffer_writes: u64,
    /// Flits read out of input buffers.
    pub buffer_reads: u64,
    /// Flit traversals of the crossbar + inter-router link datapath.
    pub link_hops: u64,
    /// Flit ejections through the local port (crossbar only, no link).
    pub local_hops: u64,
    /// Allocator grants (RC + VA + SA).
    pub allocations: u64,
    /// Router-cycles simulated (routers x cycles).
    pub router_cycles: u64,
    /// Extra link traversals spent retransmitting corrupted flits (zero
    /// without fault injection). Each costs a full hop.
    pub retry_hops: u64,
    /// Single-bit NACK pulses sent back over the reverse wire (zero
    /// without fault injection).
    pub nacks: u64,
}

impl EnergyCounters {
    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &EnergyCounters) {
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.link_hops += other.link_hops;
        self.local_hops += other.local_hops;
        self.allocations += other.allocations;
        self.router_cycles += other.router_cycles;
        self.retry_hops += other.retry_hops;
        self.nacks += other.nacks;
    }

    /// The counter delta `self - earlier` (for measurement windows).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter went backwards.
    #[must_use]
    pub fn delta(&self, earlier: &EnergyCounters) -> EnergyCounters {
        EnergyCounters {
            buffer_writes: self.buffer_writes - earlier.buffer_writes,
            buffer_reads: self.buffer_reads - earlier.buffer_reads,
            link_hops: self.link_hops - earlier.link_hops,
            local_hops: self.local_hops - earlier.local_hops,
            allocations: self.allocations - earlier.allocations,
            router_cycles: self.router_cycles - earlier.router_cycles,
            retry_hops: self.retry_hops - earlier.retry_hops,
            nacks: self.nacks - earlier.nacks,
        }
    }
}

/// The per-event energy model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Flit width in bits.
    pub flit_bits: usize,
    /// Buffer write energy per bit.
    pub buffer_write_per_bit: Energy,
    /// Buffer read energy per bit.
    pub buffer_read_per_bit: Energy,
    /// Static (clock tree + leakage) control power per router.
    pub control_static_per_router: Power,
    /// Energy per allocator grant (RC, VA or SA).
    pub control_per_allocation: Energy,
    /// Datapath length a flit traverses per hop (crossbar path + link).
    pub hop_length: Length,
    /// Datapath energy per bit per unit length.
    pub datapath_energy: EnergyPerBitLength,
    /// Shared bias-generator power per router (SRLR only).
    pub bias_per_router: Power,
    /// Which datapath the energy was derived for.
    pub datapath: DatapathKind,
}

impl PowerModel {
    /// Calibration activity: flits a saturated router moves per cycle.
    /// The paper's component powers are reproduced at this point.
    pub const CALIBRATION_FLITS_PER_CYCLE: f64 = 2.0;

    /// Builds the model for a datapath kind; SRLR numbers are *measured*
    /// from the simulated link, full-swing numbers from the behavioural
    /// baseline.
    pub fn for_datapath(tech: &Technology, flit_bits: usize, datapath: DatapathKind) -> Self {
        let datapath_energy = match datapath {
            DatapathKind::SrlrLowSwing => SrlrLink::paper_test_chip(tech).metrics().energy,
            DatapathKind::FullSwingRepeated => {
                FullSwingRepeatedLink::paper_reference(tech.vdd).energy_per_bit_length()
            }
        };
        let bias = match datapath {
            DatapathKind::SrlrLowSwing => Power::from_microwatts(587.0),
            DatapathKind::FullSwingRepeated => Power::zero(),
        };
        Self {
            flit_bits,
            // 38.8 mW at 2 flits/cycle x 64 bits x 1 GHz, split 60/40
            // between write and read: 303 fJ/bit total.
            buffer_write_per_bit: Energy::from_femtojoules(182.0),
            buffer_read_per_bit: Energy::from_femtojoules(121.0),
            // 5.2 mW: half static (clocking), half allocator activity.
            control_static_per_router: Power::from_milliwatts(2.6),
            control_per_allocation: Energy::from_picojoules(0.93),
            // Crossbar crosspoint path (~1.5 mm) plus the 1 mm link.
            hop_length: Length::from_millimeters(2.5),
            datapath_energy,
            bias_per_router: bias,
            datapath,
        }
    }

    /// The paper's model: 64-bit SRLR datapath.
    pub fn paper_default(tech: &Technology) -> Self {
        Self::for_datapath(tech, 64, DatapathKind::SrlrLowSwing)
    }

    /// Datapath energy of one flit hop (crossbar + link).
    pub fn hop_energy(&self) -> Energy {
        let per_bit = self.datapath_energy * self.hop_length;
        per_bit.total(self.flit_bits as f64)
    }

    /// Datapath energy of a local ejection (crossbar only, no link wire;
    /// modelled as 40 % of a full hop).
    pub fn local_hop_energy(&self) -> Energy {
        self.hop_energy() * 0.4
    }

    /// Energy of one NACK pulse: a single bit back over the link wire
    /// (the reverse wire reuses the SRLR repeater chain).
    pub fn nack_energy(&self) -> Energy {
        self.hop_energy() * (1.0 / self.flit_bits as f64)
    }

    /// Total energy of a counter set (dynamic only). Retransmissions pay
    /// a full extra hop per retry plus a one-bit NACK per detection.
    pub fn dynamic_energy(&self, c: &EnergyCounters) -> Energy {
        let bits = self.flit_bits as f64;
        let buffers = self.buffer_write_per_bit * (c.buffer_writes as f64 * bits)
            + self.buffer_read_per_bit * (c.buffer_reads as f64 * bits);
        let control = self.control_per_allocation * c.allocations as f64;
        let datapath = self.hop_energy() * (c.link_hops + c.retry_hops) as f64
            + self.local_hop_energy() * c.local_hops as f64
            + self.nack_energy() * c.nacks as f64;
        buffers + control + datapath
    }

    /// Converts counters plus elapsed time into a per-component report.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn report(
        &self,
        c: &EnergyCounters,
        cycles: u64,
        clock: Frequency,
        routers: usize,
    ) -> RouterPowerReport {
        assert!(cycles > 0, "need at least one simulated cycle");
        let elapsed: TimeInterval = clock.period() * cycles as f64;
        let bits = self.flit_bits as f64;
        let per = |e: Energy| Power::from_watts(e.joules() / elapsed.seconds());

        let buffers = per(self.buffer_write_per_bit * (c.buffer_writes as f64 * bits)
            + self.buffer_read_per_bit * (c.buffer_reads as f64 * bits));
        let control_dyn = per(self.control_per_allocation * c.allocations as f64);
        let control = control_dyn + self.control_static_per_router * routers as f64;
        let datapath = per(self.hop_energy() * (c.link_hops + c.retry_hops) as f64
            + self.local_hop_energy() * c.local_hops as f64
            + self.nack_energy() * c.nacks as f64);
        let bias = self.bias_per_router * routers as f64;
        RouterPowerReport {
            buffers,
            control,
            datapath,
            bias,
            routers,
        }
    }

    /// The analytic calibration point: a single router moving
    /// [`Self::CALIBRATION_FLITS_PER_CYCLE`] flits per cycle at `clock`,
    /// every flit written + read + traversing a full hop, with RC/VA/SA
    /// activity for 5-flit packets. This is what reproduces the paper's
    /// 38.8 / 5.2 / 12.9 mW split.
    pub fn calibration_report(&self, clock: Frequency, packet_len: usize) -> RouterPowerReport {
        let flits = Self::CALIBRATION_FLITS_PER_CYCLE;
        let cycles = 1_000_000u64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a fixed flit rate over a million cycles, far below u64::MAX"
        )]
        let total_flits = (flits * cycles as f64) as u64;
        let heads = total_flits / packet_len as u64;
        let c = EnergyCounters {
            buffer_writes: total_flits,
            buffer_reads: total_flits,
            link_hops: total_flits,
            local_hops: 0,
            // RC + VA per head, SA per flit.
            allocations: 2 * heads + total_flits,
            router_cycles: cycles,
            retry_hops: 0,
            nacks: 0,
        };
        self.report(&c, cycles, clock, 1)
    }
}

/// Per-component router (or network) power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterPowerReport {
    /// Input-buffer power.
    pub buffers: Power,
    /// Control logic (allocators + clocking) power.
    pub control: Power,
    /// Physical datapath (crossbar + links) power.
    pub datapath: Power,
    /// Adaptive-swing bias generators.
    pub bias: Power,
    /// Number of routers covered by the report.
    pub routers: usize,
}

impl RouterPowerReport {
    /// Total power.
    pub fn total(&self) -> Power {
        self.buffers + self.control + self.datapath + self.bias
    }

    /// Fraction of the total spent in the physical datapath (+ bias).
    pub fn datapath_fraction(&self) -> f64 {
        (self.datapath + self.bias) / self.total()
    }
}

impl core::fmt::Display for RouterPowerReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "buffers {:.1} mW | control {:.1} mW | datapath {:.1} mW | bias {:.2} mW (over {} routers)",
            self.buffers.milliwatts(),
            self.control.milliwatts(),
            self.datapath.milliwatts(),
            self.bias.milliwatts(),
            self.routers,
        )
    }
}

/// A published mesh-NoC power breakdown (Sec. I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishedBreakdown {
    /// Chip name.
    pub name: &'static str,
    /// Links' share of NoC power (percent).
    pub links_pct: f64,
    /// Crossbars' share (percent).
    pub crossbar_pct: f64,
    /// Buffers' share (percent).
    pub buffers_pct: f64,
}

impl PublishedBreakdown {
    /// The three chips the paper cites.
    pub fn all() -> [Self; 3] {
        [
            Self {
                name: "RAW",
                links_pct: 39.0,
                crossbar_pct: 30.0,
                buffers_pct: 31.0,
            },
            Self {
                name: "TRIPS",
                links_pct: 31.0,
                crossbar_pct: 33.0,
                buffers_pct: 35.0,
            },
            Self {
                name: "TeraFLOPS",
                links_pct: 17.0,
                crossbar_pct: 15.0,
                buffers_pct: 22.0,
            },
        ]
    }

    /// The unavoidable physical-datapath share (links + crossbar): 69 %
    /// in RAW, 64 % in TRIPS, 32 % in TeraFLOPS per the paper.
    pub fn datapath_pct(&self) -> f64 {
        self.links_pct + self.crossbar_pct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::paper_default(&Technology::soi45())
    }

    #[test]
    fn calibration_reproduces_paper_router_breakdown() {
        let m = model();
        let r = m.calibration_report(Frequency::from_gigahertz(1.0), 5);
        // Paper: buffers 38.8 mW, control 5.2 mW, datapath 12.9 mW.
        let b = r.buffers.milliwatts();
        let c = r.control.milliwatts();
        let d = (r.datapath + r.bias).milliwatts();
        assert!((b - 38.8).abs() < 1.5, "buffers {b} mW");
        assert!((c - 5.2).abs() < 0.8, "control {c} mW");
        assert!((d - 12.9).abs() < 2.5, "datapath {d} mW");
    }

    #[test]
    fn full_swing_datapath_costs_more() {
        let tech = Technology::soi45();
        let srlr = PowerModel::for_datapath(&tech, 64, DatapathKind::SrlrLowSwing);
        let fs = PowerModel::for_datapath(&tech, 64, DatapathKind::FullSwingRepeated);
        assert!(
            fs.hop_energy() > srlr.hop_energy() * 1.3,
            "full swing {} vs SRLR {}",
            fs.hop_energy(),
            srlr.hop_energy()
        );
        // But it needs no bias generator.
        assert_eq!(fs.bias_per_router, Power::zero());
    }

    #[test]
    fn hop_energy_scales_with_flit_width() {
        let tech = Technology::soi45();
        let w64 = PowerModel::for_datapath(&tech, 64, DatapathKind::SrlrLowSwing);
        let w32 = PowerModel::for_datapath(&tech, 32, DatapathKind::SrlrLowSwing);
        assert!((w64.hop_energy().joules() / w32.hop_energy().joules() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn report_scales_linearly_with_activity() {
        let m = model();
        let base = EnergyCounters {
            buffer_writes: 1000,
            buffer_reads: 1000,
            link_hops: 1000,
            local_hops: 100,
            allocations: 1200,
            router_cycles: 10_000,
            retry_hops: 50,
            nacks: 50,
        };
        let mut double = base;
        double.merge(&base);
        let e1 = m.dynamic_energy(&base);
        let e2 = m.dynamic_energy(&double);
        assert!((e2.joules() / e1.joules() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn retries_cost_full_hops_and_nacks_cost_one_bit() {
        let m = model();
        let clean = EnergyCounters {
            link_hops: 1000,
            ..EnergyCounters::default()
        };
        let retried = EnergyCounters {
            retry_hops: 100,
            nacks: 100,
            ..clean
        };
        let extra = retried.delta(&clean);
        assert_eq!(extra.retry_hops, 100);
        let de = m.dynamic_energy(&retried) - m.dynamic_energy(&clean);
        let expect = m.hop_energy() * 100.0 + m.nack_energy() * 100.0;
        assert!((de.joules() / expect.joules() - 1.0).abs() < 1e-9);
        // A NACK is a single-bit reverse pulse: 1/64th of a 64-bit hop.
        assert!((m.nack_energy().joules() * 64.0 / m.hop_energy().joules() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn published_breakdowns_match_paper_text() {
        let all = PublishedBreakdown::all();
        assert_eq!(all[0].datapath_pct(), 69.0); // RAW
        assert_eq!(all[1].datapath_pct(), 64.0); // TRIPS
        assert_eq!(all[2].datapath_pct(), 32.0); // TeraFLOPS
    }

    #[test]
    fn report_totals_and_fractions() {
        let r = RouterPowerReport {
            buffers: Power::from_milliwatts(38.8),
            control: Power::from_milliwatts(5.2),
            datapath: Power::from_milliwatts(12.3),
            bias: Power::from_milliwatts(0.6),
            routers: 1,
        };
        assert!((r.total().milliwatts() - 56.9).abs() < 1e-9);
        assert!((r.datapath_fraction() - 12.9 / 56.9).abs() < 1e-3);
        assert!(r.to_string().contains("buffers"));
    }

    #[test]
    #[should_panic(expected = "at least one simulated cycle")]
    fn zero_cycles_rejected() {
        let m = model();
        let _ = m.report(
            &EnergyCounters::default(),
            0,
            Frequency::from_gigahertz(1.0),
            1,
        );
    }
}
