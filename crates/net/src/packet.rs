//! Frames on the air.

use crate::node::NodeId;

/// A frame as transmitted by the MAC.
///
/// Every frame is physically a local broadcast (directed diffusion is
/// neighbor-to-neighbor); `dst` is *logical* addressing — when set, only that
/// neighbor's protocol sees the packet, although every node in range still
/// pays receive energy for it, as a promiscuous radio would.
#[derive(Debug, Clone)]
pub struct Packet<M> {
    /// The transmitting node (the previous hop, not the original source).
    pub from: NodeId,
    /// Logical destination; `None` means every neighbor processes it.
    pub dst: Option<NodeId>,
    /// Frame size in bytes, which determines air time and hence energy.
    pub bytes: u32,
    /// The protocol-level message.
    pub payload: M,
}

impl<M> Packet<M> {
    /// Creates a broadcast packet.
    pub fn broadcast(from: NodeId, bytes: u32, payload: M) -> Self {
        Packet {
            from,
            dst: None,
            bytes,
            payload,
        }
    }

    /// Creates a logically unicast packet (still broadcast on the air).
    pub fn unicast(from: NodeId, to: NodeId, bytes: u32, payload: M) -> Self {
        Packet {
            from,
            dst: Some(to),
            bytes,
            payload,
        }
    }

    /// Whether `node` should process this packet.
    pub fn addressed_to(&self, node: NodeId) -> bool {
        self.dst.is_none_or(|d| d == node)
    }
}

/// Identifier of one physical transmission (used to pair the start and end
/// of a reception at each hearer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(pub u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_addresses_everyone() {
        let p = Packet::broadcast(NodeId(1), 64, ());
        assert!(p.addressed_to(NodeId(0)));
        assert!(p.addressed_to(NodeId(9)));
        assert_eq!(p.dst, None);
    }

    #[test]
    fn unicast_addresses_only_destination() {
        let p = Packet::unicast(NodeId(1), NodeId(2), 36, ());
        assert!(p.addressed_to(NodeId(2)));
        assert!(!p.addressed_to(NodeId(3)));
    }
}
