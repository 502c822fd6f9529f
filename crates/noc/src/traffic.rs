//! Synthetic traffic generation.

use crate::packet::{Packet, PacketId};
use crate::topology::{Coord, Mesh};
use srlr_rng::Xoshiro256pp;

/// A synthetic traffic pattern: the destination map of the mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Each packet picks a uniformly random destination (excluding the
    /// source).
    UniformRandom,
    /// `(x, y) -> (y, x)`.
    Transpose,
    /// `(x, y) -> (cols-1-x, rows-1-y)`.
    BitComplement,
    /// Each node talks to its east neighbour (wrapping) — the local
    /// traffic meshes excel at.
    Neighbor,
    /// A fraction of traffic targets one hot node; the rest is uniform.
    Hotspot {
        /// The hot destination.
        hot: Coord,
        /// Fraction of packets sent to it (0..=1).
        fraction: f64,
    },
    /// Multicast: each packet targets `fanout` random destinations.
    Multicast {
        /// Destinations per packet.
        fanout: usize,
    },
}

/// Bernoulli packet injector implementing the patterns.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    mesh: Mesh,
    pattern: Pattern,
    /// Packet injection probability per node per cycle.
    injection_rate: f64,
    packet_len: usize,
    rng: Xoshiro256pp,
    next_id: u64,
}

impl TrafficGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the injection rate is outside `[0, 1]`, the packet
    /// length is zero, a uniform or hotspot pattern runs on a one-node
    /// mesh (it has no destination other than the source), a hotspot
    /// fraction is outside `[0, 1]`, or a multicast fanout is zero or
    /// exceeds the mesh size.
    pub fn new(
        mesh: Mesh,
        pattern: Pattern,
        injection_rate: f64,
        packet_len: usize,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&injection_rate),
            "injection rate must be in [0, 1]"
        );
        assert!(packet_len > 0, "packets need at least one flit");
        if matches!(pattern, Pattern::UniformRandom | Pattern::Hotspot { .. }) {
            assert!(
                mesh.len() >= 2,
                "random destinations need a mesh of at least two nodes"
            );
        }
        match pattern {
            Pattern::Hotspot { fraction, hot } => {
                assert!(
                    (0.0..=1.0).contains(&fraction),
                    "hotspot fraction must be in [0, 1]"
                );
                assert!(mesh.contains(hot), "hotspot outside the mesh");
            }
            Pattern::Multicast { fanout } => {
                assert!(
                    fanout >= 1 && fanout < mesh.len(),
                    "multicast fanout must be in [1, nodes)"
                );
            }
            _ => {}
        }
        Self {
            mesh,
            pattern,
            injection_rate,
            packet_len,
            rng: Xoshiro256pp::new(seed),
            next_id: 0,
        }
    }

    /// The pattern.
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }

    /// Generates this cycle's new packet at `src`, if the Bernoulli coin
    /// lands.
    pub fn maybe_inject(&mut self, src: Coord, cycle: u64) -> Option<Packet> {
        if self.rng.next_f64() >= self.injection_rate {
            return None;
        }
        Some(self.make_packet(src, cycle))
    }

    /// Unconditionally generates one packet at `src` (for deterministic
    /// tests and drains).
    pub fn make_packet(&mut self, src: Coord, cycle: u64) -> Packet {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        let len = self.packet_len;
        match self.pattern {
            Pattern::UniformRandom => {
                let dst = self.random_other(src);
                Packet::unicast(id, src, dst, len, cycle)
            }
            Pattern::Transpose => {
                let dst = Coord::new(src.y % self.mesh.cols(), src.x % self.mesh.rows());
                Packet::unicast(id, src, dst, len, cycle)
            }
            Pattern::BitComplement => {
                let dst = Coord::new(self.mesh.cols() - 1 - src.x, self.mesh.rows() - 1 - src.y);
                Packet::unicast(id, src, dst, len, cycle)
            }
            Pattern::Neighbor => {
                let dst = Coord::new((src.x + 1) % self.mesh.cols(), src.y);
                Packet::unicast(id, src, dst, len, cycle)
            }
            Pattern::Hotspot { hot, fraction } => {
                let dst = if self.rng.next_f64() < fraction && hot != src {
                    hot
                } else {
                    self.random_other(src)
                };
                Packet::unicast(id, src, dst, len, cycle)
            }
            Pattern::Multicast { fanout } => {
                let mut dsts = Vec::with_capacity(fanout);
                while dsts.len() < fanout {
                    let d = self.random_other(src);
                    if !dsts.contains(&d) {
                        dsts.push(d);
                    }
                }
                dsts.sort();
                Packet::multicast(id, src, dsts, len, cycle)
            }
        }
    }

    fn random_other(&mut self, src: Coord) -> Coord {
        loop {
            let idx = self.rng.index(self.mesh.len());
            let c = self.mesh.coord_of(idx);
            if c != src {
                return c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(4, 4)
    }

    fn generator(pattern: Pattern) -> TrafficGenerator {
        TrafficGenerator::new(mesh(), pattern, 0.5, 5, 7)
    }

    #[test]
    fn uniform_never_self_targets() {
        let mut g = generator(Pattern::UniformRandom);
        let src = Coord::new(2, 2);
        for _ in 0..200 {
            let p = g.make_packet(src, 0);
            assert_ne!(p.dst(), src);
            assert!(mesh().contains(p.dst()));
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mut g = generator(Pattern::Transpose);
        let p = g.make_packet(Coord::new(1, 3), 0);
        assert_eq!(p.dst(), Coord::new(3, 1));
    }

    #[test]
    fn bit_complement_mirrors() {
        let mut g = generator(Pattern::BitComplement);
        let p = g.make_packet(Coord::new(0, 1), 0);
        assert_eq!(p.dst(), Coord::new(3, 2));
    }

    #[test]
    fn neighbor_goes_east_with_wrap() {
        let mut g = generator(Pattern::Neighbor);
        assert_eq!(g.make_packet(Coord::new(1, 2), 0).dst(), Coord::new(2, 2));
        assert_eq!(g.make_packet(Coord::new(3, 2), 0).dst(), Coord::new(0, 2));
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let hot = Coord::new(3, 3);
        let mut g = generator(Pattern::Hotspot { hot, fraction: 0.8 });
        let n = 500;
        let hits = (0..n)
            .filter(|_| g.make_packet(Coord::new(0, 0), 0).dst() == hot)
            .count();
        assert!(hits > n * 6 / 10, "only {hits}/{n} hit the hotspot");
    }

    #[test]
    fn multicast_has_unique_destinations() {
        let mut g = generator(Pattern::Multicast { fanout: 4 });
        let p = g.make_packet(Coord::new(0, 0), 0);
        assert_eq!(p.dsts.len(), 4);
        let mut sorted = p.dsts.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "destinations must be unique");
        assert!(p.is_multicast());
    }

    #[test]
    fn injection_rate_is_respected() {
        let mut g = TrafficGenerator::new(mesh(), Pattern::UniformRandom, 0.25, 5, 11);
        let n = 4000;
        let injected = (0..n)
            .filter(|&i| g.maybe_inject(Coord::new(1, 1), i).is_some())
            .count();
        let rate = injected as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "measured rate {rate}");
    }

    #[test]
    fn zero_rate_never_injects() {
        let mut g = TrafficGenerator::new(mesh(), Pattern::UniformRandom, 0.0, 5, 11);
        assert!((0..100).all(|i| g.maybe_inject(Coord::new(0, 0), i).is_none()));
    }

    #[test]
    fn packet_ids_are_unique_and_increasing() {
        let mut g = generator(Pattern::UniformRandom);
        let a = g.make_packet(Coord::new(0, 0), 0);
        let b = g.make_packet(Coord::new(0, 0), 0);
        assert!(b.id > a.id);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn oversized_fanout_rejected() {
        let _ = generator(Pattern::Multicast { fanout: 16 });
    }

    #[test]
    #[should_panic(expected = "injection rate")]
    fn bad_rate_rejected() {
        let _ = TrafficGenerator::new(mesh(), Pattern::UniformRandom, 1.5, 5, 0);
    }
}

#[cfg(test)]
mod bimodal_tests {
    use super::*;

    #[test]
    fn unimodal_generator_is_unchanged() {
        let mut g = TrafficGenerator::new(Mesh::new(4, 4), Pattern::UniformRandom, 0.5, 5, 3);
        assert!((0..50).all(|_| g.make_packet(Coord::new(0, 0), 0).len_flits == 5));
    }

    #[test]
    fn one_node_meshes_reject_random_destinations() {
        let one = Mesh::new(1, 1);
        for pattern in [
            Pattern::UniformRandom,
            Pattern::Hotspot {
                hot: Coord::new(0, 0),
                fraction: 0.5,
            },
        ] {
            let built = std::panic::catch_unwind(|| TrafficGenerator::new(one, pattern, 0.5, 5, 3));
            assert!(built.is_err(), "{pattern:?} on a one-node mesh");
        }
    }
}
