//! Physical and MAC layer configuration: the paper's fixed radio and
//! 802.11 parameters as constants (`DESIGN.md` §3), and the one choice a
//! run makes, its MAC.

use wsn_sim::SimDuration;

use crate::mac::MacKind;

/// Channel bit rate, bits per second (DESIGN §3 "MAC": 1.6 Mbps).
pub(crate) const BITRATE_BPS: u64 = 1_600_000;

/// PHY preamble and header air time per frame (DESIGN §3 "Preamble":
/// 802.11 DSSS long preamble, 192 µs).
pub(crate) const PREAMBLE: SimDuration = SimDuration::from_micros(192);

/// MAC slot time for backoff (DESIGN §3 "Slot": 802.11 DSSS, 20 µs).
pub(crate) const SLOT: SimDuration = SimDuration::from_micros(20);

/// DIFS, the idle period sensed before transmitting (DESIGN §3 "DIFS":
/// 50 µs).
pub(crate) const DIFS: SimDuration = SimDuration::from_micros(50);

/// SIFS, the short gap before an ACK, a CTS or the data frame after a CTS
/// (DESIGN §3 "SIFS": 10 µs).
pub(crate) const SIFS: SimDuration = SimDuration::from_micros(10);

/// Initial contention window in slots (DESIGN §3 "CW": 32). Backoff draws
/// uniformly from `[0, cw)`; the window doubles per retransmission (802.11
/// exponential backoff) up to [`CW_MAX_SLOTS`].
pub(crate) const CW_MIN_SLOTS: u64 = 32;

/// Maximum contention window in slots (DESIGN §3 "CW": 1024).
pub(crate) const CW_MAX_SLOTS: u64 = 1024;

/// Link-layer retransmission limit for unicast frames (DESIGN §3 "Retry
/// limit": the 802.11 short retry limit, 7). Broadcast frames are never
/// acknowledged or retried.
pub const RETRY_LIMIT: u32 = 7;

/// MAC ACK frame size in bytes (DESIGN §3 "ACK/RTS/CTS sizes": 14).
pub(crate) const ACK_BYTES: u32 = 14;

/// RTS frame size in bytes (DESIGN §3 "ACK/RTS/CTS sizes": 20).
pub(crate) const RTS_BYTES: u32 = 20;

/// CTS frame size in bytes (DESIGN §3 "ACK/RTS/CTS sizes": 14).
pub(crate) const CTS_BYTES: u32 = 14;

/// Air time of a frame of `bytes` payload bytes: the preamble plus the
/// payload at 1.6 Mbps.
///
/// # Examples
///
/// ```
/// // A 64-byte event at 1.6 Mbps takes 320 µs of payload air time,
/// // plus the 192 µs PHY preamble.
/// assert_eq!(wsn_net::tx_duration(64).as_nanos(), 192_000 + 320_000);
/// ```
pub fn tx_duration(bytes: u32) -> SimDuration {
    let bits = u64::from(bytes) * 8;
    // nanoseconds = bits / (bits/s) * 1e9, computed in integer math.
    let payload_ns = bits * 1_000_000_000 / BITRATE_BPS;
    PREAMBLE + SimDuration::from_nanos(payload_ns)
}

/// How long a unicast sender waits for an ACK after its transmission ends
/// before retrying: SIFS + ACK air time + a few slots of slack.
pub(crate) fn ack_timeout() -> SimDuration {
    SIFS + tx_duration(ACK_BYTES) + SLOT.saturating_mul(4)
}

/// How long an RTS sender waits for the CTS before retrying.
pub(crate) fn cts_timeout() -> SimDuration {
    SIFS + tx_duration(CTS_BYTES) + SLOT.saturating_mul(4)
}

/// The run's network choice: which MAC it uses. Every other radio and MAC
/// parameter is one of this module's constants.
///
/// # Examples
///
/// ```
/// use wsn_net::{MacKind, NetConfig};
///
/// // Plain CSMA/CA+ACK unless a run asks for another MAC.
/// assert_eq!(NetConfig::default().mac, MacKind::Csma);
/// let rts = NetConfig { mac: MacKind::RtsCts };
/// assert_ne!(rts, NetConfig::default());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetConfig {
    /// Which MAC the run uses. The default ([`MacKind::Csma`]) is plain
    /// CSMA/CA+ACK; [`MacKind::RtsCts`] adds the RTS/CTS handshake before
    /// every unicast data frame (ns-2's default for its 802.11 model — more
    /// per-transmission overhead, fewer hidden-terminal data collisions);
    /// [`MacKind::Ideal`] is the contention-free lower bound. The
    /// `mac_overhead` ablation compares all three.
    pub mac: MacKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_packet_air_times() {
        // 64-byte event: 512 bits / 1.6 Mbps = 320 µs.
        assert_eq!(tx_duration(64).as_nanos(), 192_000 + 320_000);
        // 36-byte control message: 288 bits / 1.6 Mbps = 180 µs.
        assert_eq!(tx_duration(36).as_nanos(), 192_000 + 180_000);
    }

    #[test]
    fn zero_byte_frame_is_preamble_only() {
        assert_eq!(tx_duration(0), PREAMBLE);
    }

    #[test]
    fn ack_timeout_covers_ack_air_time() {
        let arrival = SIFS + tx_duration(ACK_BYTES);
        assert!(ack_timeout() > arrival, "timeout must outlast the ACK");
    }

    #[test]
    fn cts_timeout_covers_cts_air_time() {
        assert!(cts_timeout() > SIFS + tx_duration(CTS_BYTES));
        assert_eq!(NetConfig::default().mac, MacKind::Csma, "RTS/CTS is opt-in");
    }

    #[test]
    fn duration_scales_linearly() {
        let one = tx_duration(100).as_nanos() - PREAMBLE.as_nanos();
        let two = tx_duration(200).as_nanos() - PREAMBLE.as_nanos();
        assert_eq!(two, 2 * one);
    }
}
