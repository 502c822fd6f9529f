//! Packets and flits, with CRC-protected payloads.

use crate::topology::Coord;

/// CRC-16/CCITT-FALSE of a payload, one register shift per bit: the
/// definition [`crc16`] tabulates.
const fn crc16_bitwise(payload: u64) -> u16 {
    let mut crc: u16 = 0xFFFF;
    let mut bit = 64;
    while bit > 0 {
        bit -= 1;
        let feedback = (crc >> 15 == 1) != ((payload >> bit) & 1 == 1);
        crc <<= 1;
        if feedback {
            crc ^= 0x1021;
        }
    }
    crc
}

/// The CRC of the all-zero payload.
const CRC16_OF_ZERO: u16 = crc16_bitwise(0);

/// The CRC is affine in the payload bits, so it is [`CRC16_OF_ZERO`]
/// XOR one contribution per payload byte: entry `[k][b]` is the
/// contribution of value `b` in byte `k` (most-significant first).
const CRC16_BYTE_TERMS: [[u16; 256]; 8] = {
    let mut table = [[0u16; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            table[k][byte] = crc16_bitwise((byte as u64) << (8 * (7 - k))) ^ CRC16_OF_ZERO;
            byte += 1;
        }
        k += 1;
    }
    table
};

/// CRC-16/CCITT-FALSE (polynomial 0x1021, init 0xFFFF) over the 64-bit
/// flit payload, most-significant byte first — the check the link-level
/// retransmission protocol uses to detect corrupted flits. CRC-16
/// detects every 1- and 2-bit error and any burst up to 16 bits, so only
/// improbable multi-bit patterns can slip through silently.
pub fn crc16(payload: u64) -> u16 {
    let mut crc = CRC16_OF_ZERO;
    for (terms, byte) in CRC16_BYTE_TERMS.iter().zip(payload.to_be_bytes()) {
        crc ^= terms[usize::from(byte)];
    }
    crc
}

/// The deterministic payload word of flit `index` of packet `id` (a
/// SplitMix-style mix, so every flit carries a distinct, reproducible
/// bit pattern for the CRC to protect).
pub fn flit_payload(id: PacketId, index: usize) -> u64 {
    srlr_rng::stream_seed(id.0, index as u64)
}

/// Unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl core::fmt::Display for PacketId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// A network packet: one or more flits from a source to one or more
/// destinations (multicast packets carry several).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Identifier.
    pub id: PacketId,
    /// Source node.
    pub src: Coord,
    /// Destination node(s); unicast packets carry exactly one.
    pub dsts: Vec<Coord>,
    /// Length in flits (head + bodies + tail; single-flit packets send a
    /// combined head-tail).
    pub len_flits: usize,
    /// Cycle the packet was created at the source queue.
    pub inject_cycle: u64,
}

impl Packet {
    /// A unicast packet.
    ///
    /// # Panics
    ///
    /// Panics if `len_flits` is zero.
    pub fn unicast(
        id: PacketId,
        src: Coord,
        dst: Coord,
        len_flits: usize,
        inject_cycle: u64,
    ) -> Self {
        assert!(len_flits > 0, "packet needs at least one flit");
        Self {
            id,
            src,
            dsts: vec![dst],
            len_flits,
            inject_cycle,
        }
    }

    /// A multicast packet to several destinations.
    ///
    /// # Panics
    ///
    /// Panics if `len_flits` is zero or `dsts` is empty.
    pub fn multicast(
        id: PacketId,
        src: Coord,
        dsts: Vec<Coord>,
        len_flits: usize,
        inject_cycle: u64,
    ) -> Self {
        assert!(len_flits > 0, "packet needs at least one flit");
        assert!(!dsts.is_empty(), "multicast needs at least one destination");
        Self {
            id,
            src,
            dsts,
            len_flits,
            inject_cycle,
        }
    }

    /// `true` when the packet has more than one destination.
    pub fn is_multicast(&self) -> bool {
        self.dsts.len() > 1
    }

    /// The single destination of a unicast packet.
    ///
    /// # Panics
    ///
    /// Panics on a multicast packet.
    pub fn dst(&self) -> Coord {
        assert!(
            !self.is_multicast(),
            "multicast packet has many destinations"
        );
        self.dsts[0]
    }

    /// Produces the packet's flits in wire order.
    pub fn flits(&self, dst: Coord) -> Vec<Flit> {
        (0..self.len_flits).map(|i| self.flit_at(i, dst)).collect()
    }

    /// Flit `index` of the packet in wire order, bound for `dst`.
    pub(crate) fn flit_at(&self, index: usize, dst: Coord) -> Flit {
        let kind = if self.len_flits == 1 {
            FlitKind::HeadTail
        } else if index == 0 {
            FlitKind::Head
        } else if index + 1 == self.len_flits {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        let payload = flit_payload(self.id, index);
        Flit {
            packet: self.id,
            kind,
            dst,
            inject_cycle: self.inject_cycle,
            payload,
            crc: crc16(payload),
        }
    }
}

/// Flit position within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit: carries the route.
    Head,
    /// Middle flit.
    Body,
    /// Last flit: releases the path.
    Tail,
    /// A single-flit packet.
    HeadTail,
}

impl FlitKind {
    /// `true` for flits that open a route (head or head-tail).
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// `true` for flits that close a route (tail or head-tail).
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit travelling through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Destination node (per-branch for decomposed multicasts).
    pub dst: Coord,
    /// Inject cycle of the owning packet (for latency accounting).
    pub inject_cycle: u64,
    /// Payload word (the bits the fault model corrupts).
    pub payload: u64,
    /// CRC-16 of the payload, computed at packetisation.
    pub crc: u16,
}

impl Flit {
    /// `true` when the stored CRC matches the payload — the receiver-side
    /// integrity check of the retransmission protocol.
    pub fn crc_ok(&self) -> bool {
        crc16(self.payload) == self.crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(len: usize) -> Packet {
        Packet::unicast(PacketId(1), Coord::new(0, 0), Coord::new(3, 3), len, 10)
    }

    #[test]
    fn single_flit_packet_is_head_tail() {
        let flits = pkt(1).flits(Coord::new(3, 3));
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head());
        assert!(flits[0].kind.is_tail());
    }

    #[test]
    fn multi_flit_packet_structure() {
        let flits = pkt(4).flits(Coord::new(3, 3));
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits.iter().all(|f| f.packet == PacketId(1)));
    }

    #[test]
    fn multicast_flags() {
        let m = Packet::multicast(
            PacketId(2),
            Coord::new(0, 0),
            vec![Coord::new(1, 1), Coord::new(2, 2)],
            2,
            0,
        );
        assert!(m.is_multicast());
        let u = pkt(1);
        assert!(!u.is_multicast());
        assert_eq!(u.dst(), Coord::new(3, 3));
    }

    #[test]
    #[should_panic(expected = "many destinations")]
    fn dst_of_multicast_panics() {
        let m = Packet::multicast(
            PacketId(2),
            Coord::new(0, 0),
            vec![Coord::new(1, 1), Coord::new(2, 2)],
            2,
            0,
        );
        let _ = m.dst();
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_rejected() {
        let _ = pkt(0);
    }

    #[test]
    fn crc16_reference_vector() {
        // CRC-16/CCITT-FALSE of the ASCII bytes "123456789" is 0x29B1.
        let word = u64::from_be_bytes(*b"12345678");
        let mut crc = crc16(word);
        // Extend by the final '9' byte manually to match the 9-byte vector.
        crc ^= u16::from(b'9') << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
        assert_eq!(crc, 0x29B1);
    }

    #[test]
    fn tabulated_crc16_matches_the_bitwise_register() {
        let mut word = 0x0123_4567_89ab_cdef_u64;
        for k in 0..1_000u64 {
            word = srlr_rng::stream_seed(word, k);
            assert_eq!(crc16(word), crc16_bitwise(word), "{word:#x}");
        }
        for word in [0, u64::MAX, 1, 1 << 63] {
            assert_eq!(crc16(word), crc16_bitwise(word), "{word:#x}");
        }
    }

    #[test]
    fn flits_carry_valid_crcs() {
        for f in pkt(4).flits(Coord::new(3, 3)) {
            assert!(f.crc_ok());
        }
    }

    #[test]
    fn single_bit_flips_are_always_detected() {
        let f = pkt(1).flits(Coord::new(3, 3))[0];
        for bit in 0..64 {
            let mut bad = f;
            bad.payload ^= 1 << bit;
            assert!(!bad.crc_ok(), "missed flip of payload bit {bit}");
        }
        for bit in 0..16 {
            let mut bad = f;
            bad.crc ^= 1 << bit;
            assert!(!bad.crc_ok(), "missed flip of crc bit {bit}");
        }
    }

    #[test]
    fn payloads_differ_across_flits_and_packets() {
        let a = flit_payload(PacketId(1), 0);
        assert_ne!(a, flit_payload(PacketId(1), 1));
        assert_ne!(a, flit_payload(PacketId(2), 0));
        assert_eq!(
            a,
            flit_payload(PacketId(1), 0),
            "payloads are deterministic"
        );
    }
}
