//! Byte encoding of the paper's packet and acknowledgment formats.
//!
//! The header the paper fixes in §3 travels here as real bytes: the source
//! node identifier (16 bits, "allowing 65536 different nodes"), the
//! *bulk-request* and *bulk-exit* bits, the alternating duplicate bit of the
//! §6.2 retransmission extension, and — for packets inside a bulk dialog —
//! the `{sequence number, dialog number}` pair that **replaces the
//! source-identifier bits**: a bulk data frame carries `{seq mod W, dialog}`
//! in the exact bytes a scalar frame uses for its source id, and the
//! receiver re-substitutes the sender's identity from its dialog table.
//! Acknowledgments carry a bulk grant (or rejection) with the receiver's
//! window size, or a cumulative window acknowledgment.
//!
//! All multi-byte fields are little-endian. [`decode`] is total: any byte
//! string returns `Ok` or a typed [`WireError`], never a panic — this is
//! property-tested over arbitrary inputs.
//!
//! # Integrity trailer
//!
//! Every frame ends in a 2-byte CRC-16/CCITT-FALSE checksum (little-endian)
//! over all preceding bytes. The decoder verifies the trailer *before*
//! interpreting any field, so a corrupted datagram is rejected as
//! [`WireError::Checksum`] and counted — it can never be mis-decoded into a
//! plausible frame. CRC-16 detects every single-byte corruption (indeed
//! every burst up to 16 bits), the property the chaos plane's corruption
//! injector relies on.
//!
//! # Frame layouts
//!
//! Byte offsets below are within the frame *body* (everything before the
//! checksum trailer).
//!
//! Data frame (`FLAG_ACK` clear), `25 + 3·piggy` structured bytes, padded
//! with zeros to `max(structured, 4 · size_words)`, then the trailer:
//!
//! | bytes   | field                                                       |
//! |---------|-------------------------------------------------------------|
//! | 0       | flags (see `FLAG_*`)                                        |
//! | 1..3    | destination node id                                         |
//! | 3..5    | source node id, **or** `{seq, dialog}` when `FLAG_IN_DIALOG` |
//! | 5..7    | `size_words`                                                |
//! | 7..15   | user `msg_id`                                               |
//! | 15..19  | user `pkt_index`                                            |
//! | 19..23  | user `msg_packets`                                          |
//! | 23..25  | user `user_words`                                           |
//! | 25..28  | piggybacked ack body, iff `FLAG_PIGGY`                      |
//!
//! Ack frame (`FLAG_ACK` set, `FLAG_HEARTBEAT` clear), exactly 8 body bytes:
//!
//! | bytes | field                          |
//! |-------|--------------------------------|
//! | 0     | flags (only `FLAG_ACK`+lane)   |
//! | 1..3  | destination node id            |
//! | 3..5  | source node id                 |
//! | 5..8  | ack body                       |
//!
//! Heartbeat frame (`FLAG_ACK`, `FLAG_LANE`, and `FLAG_HEARTBEAT` all set —
//! a flag combination the packet decoder rejects, so heartbeats are
//! invisible to [`decode`] and only surface via [`decode_frame`]), exactly
//! 9 body bytes:
//!
//! | bytes | field                              |
//! |-------|------------------------------------|
//! | 0     | flags (`FLAG_ACK`+`FLAG_LANE`+`FLAG_HEARTBEAT`) |
//! | 1..3  | destination node id                |
//! | 3..5  | source node id                     |
//! | 5..9  | sender incarnation epoch (u32)     |
//!
//! Ack body (3 bytes, shared by standalone and piggybacked acks): byte 0 is
//! `bit0` = bulk/scalar kind, `bit1` = echo (scalar) or terminate (bulk),
//! `bits 2..4` = grant code (scalar); bytes 1–2 are `dialog` and
//! `window`/`cum_seq` where the kind defines them, zero otherwise.

// Bytes off the wire never choose an index: byte access here is `get`-based.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::fmt;

use nifdy_net::{AckInfo, BulkGrant, BulkTag, Lane, Packet, PacketStamp, UserData, Wire};
use nifdy_sim::{Cycle, NodeId, PacketId};

/// Frame flag: this is an acknowledgment frame.
const FLAG_ACK: u8 = 1 << 0;
/// Frame flag: the lane bit ([`Lane::index`] — 0 request, 1 reply).
const FLAG_LANE: u8 = 1 << 1;
/// Data flag: the sender requests a bulk dialog (§2.1.2).
const FLAG_BULK_REQUEST: u8 = 1 << 2;
/// Data flag: last packet of a bulk dialog (§2.1.2).
const FLAG_BULK_EXIT: u8 = 1 << 3;
/// Data flag: bytes 3..5 carry `{seq, dialog}` instead of the source id (§3).
const FLAG_IN_DIALOG: u8 = 1 << 4;
/// Data flag: the receiver must acknowledge (cleared by the §6.1 bypass).
const FLAG_NEEDS_ACK: u8 = 1 << 5;
/// Data flag: alternating duplicate-detection bit (§6.2).
const FLAG_DUP: u8 = 1 << 6;
/// Data flag: a piggybacked ack body follows the user fields (§6.1).
const FLAG_PIGGY: u8 = 1 << 7;
/// Control flag: combined with `FLAG_ACK | FLAG_LANE`, marks a liveness
/// heartbeat frame. Reuses the `FLAG_BULK_REQUEST` bit position, which the
/// ack decoder treats as reserved — so a heartbeat can never alias an ack.
const FLAG_HEARTBEAT: u8 = 1 << 2;
/// The exact flag byte of a heartbeat frame.
const HEARTBEAT_FLAGS: u8 = FLAG_ACK | FLAG_LANE | FLAG_HEARTBEAT;

/// Ack-body flag: cumulative bulk ack (set) vs scalar ack (clear).
const ACK_KIND_BULK: u8 = 1 << 0;
/// Ack-body flag: dup-bit echo (scalar) or dialog termination (bulk).
const ACK_ECHO_OR_TERM: u8 = 1 << 1;
/// Ack-body grant code shift (scalar acks, 2 bits).
const GRANT_SHIFT: u8 = 2;
const GRANT_NOT_REQUESTED: u8 = 0;
const GRANT_GRANTED: u8 = 1;
const GRANT_REJECTED: u8 = 2;

/// Structured length of a data frame without a piggybacked ack.
const DATA_BASE_LEN: usize = 25;
/// Length of an encoded ack body.
const ACK_BODY_LEN: usize = 3;
/// Body length of a standalone ack frame (before the checksum trailer).
const ACK_BODY_FRAME_LEN: usize = 5 + ACK_BODY_LEN;
/// Length of the CRC-16 checksum trailer every frame ends with.
pub const CHECKSUM_LEN: usize = 2;
/// Body length of a heartbeat frame (before the checksum trailer).
const HEARTBEAT_BODY_LEN: usize = 9;
/// Exact length of a heartbeat frame, trailer included.
pub const HEARTBEAT_FRAME_LEN: usize = HEARTBEAT_BODY_LEN + CHECKSUM_LEN;
/// Encoded bytes per packet word: frames are padded so their byte length is
/// proportional to the simulated `size_words` (4-byte words), keeping byte
/// counts and word counts interchangeable in bandwidth arithmetic.
pub const BYTES_PER_WORD: usize = 4;

/// Decode failure. Every variant names the first violated invariant, so
/// fuzzing distinguishes "short read" from genuine corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the fixed fields require.
    Truncated {
        /// Bytes the structure needs.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// The frame's total length disagrees with the length its own header
    /// implies (covers both truncated padding and oversized frames).
    LengthMismatch {
        /// Length the header implies.
        expect: usize,
        /// Bytes present.
        got: usize,
    },
    /// A flag bit that must be zero for this frame kind was set.
    ReservedFlags {
        /// The offending flag byte.
        byte: u8,
    },
    /// A scalar ack carried grant code 3, which no encoder produces.
    BadGrant {
        /// The offending 2-bit code.
        code: u8,
    },
    /// An acknowledgment frame claimed the request lane; NIFDY acks travel
    /// only on the reply network.
    AckOnRequestLane,
    /// A data frame declared `size_words == 0`.
    ZeroSize,
    /// A byte that must be zero (frame padding, or an ack-body field the
    /// kind leaves undefined) was not.
    NonZeroPadding {
        /// Offset of the first nonzero byte.
        at: usize,
    },
    /// The CRC-16 trailer did not match the frame body: the bytes were
    /// corrupted in flight (or were never a NIFDY frame).
    Checksum {
        /// Checksum the body implies.
        expect: u16,
        /// Checksum the trailer carried.
        got: u16,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::Truncated { need, got } => {
                write!(f, "truncated frame: need {need} bytes, got {got}")
            }
            WireError::LengthMismatch { expect, got } => {
                write!(
                    f,
                    "frame length {got} does not match header-implied {expect}"
                )
            }
            WireError::ReservedFlags { byte } => {
                write!(f, "reserved flag bits set: {byte:#010b}")
            }
            WireError::BadGrant { code } => write!(f, "invalid bulk grant code {code}"),
            WireError::AckOnRequestLane => write!(f, "ack frame on the request lane"),
            WireError::ZeroSize => write!(f, "data frame with size_words == 0"),
            WireError::NonZeroPadding { at } => {
                write!(f, "nonzero padding byte at offset {at}")
            }
            WireError::Checksum { expect, got } => {
                write!(
                    f,
                    "checksum mismatch: body implies {expect:#06x}, trailer carries {got:#06x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Who a decoded frame says it is from.
///
/// Scalar frames and acks carry the 16-bit source node id. Bulk frames do
/// not: §3 substitutes `{seq, dialog}` into the source-identifier bits, so
/// the true sender is only recoverable from the receiver's dialog table
/// (which [`NifdyUnit`](nifdy::NifdyUnit) consults when the packet reaches
/// `receive_bulk`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireSource {
    /// The frame named its source node.
    Node(NodeId),
    /// Bulk frame: the source bits hold `{seq, dialog}` (in
    /// [`WirePacket::wire`]'s bulk tag); the receiver re-substitutes the
    /// sender from the dialog slot.
    Dialog,
}

/// A decoded frame: everything the bytes say, nothing they don't.
///
/// Unlike the simulator's [`Packet`] this has no [`PacketId`], no timing
/// stamps, and — for bulk frames — no source node; those are bookkeeping the
/// wire genuinely does not carry. [`WirePacket::into_packet`] rebuilds a
/// full `Packet` by synthesizing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePacket {
    /// Source as carried (or not) by the frame.
    pub src: WireSource,
    /// Destination node.
    pub dst: NodeId,
    /// Lane bit.
    pub lane: Lane,
    /// Declared packet length in 32-bit words.
    pub size_words: u16,
    /// Protocol header fields (shared with the simulated wire format).
    pub wire: Wire,
    /// Workload annotation.
    pub user: UserData,
}

impl WirePacket {
    /// Captures a simulator packet as its on-the-wire content. For bulk
    /// data packets the source id is *dropped* (the §3 substitution); it is
    /// not recoverable from the resulting frame.
    pub fn from_packet(pkt: &Packet) -> Self {
        let src = match pkt.wire {
            Wire::Data { bulk: Some(_), .. } => WireSource::Dialog,
            Wire::Data { bulk: None, .. } | Wire::Ack(_) => WireSource::Node(pkt.src),
        };
        WirePacket {
            src,
            dst: pkt.dst,
            lane: pkt.lane,
            size_words: pkt.size_words,
            wire: pkt.wire,
            user: pkt.user,
        }
    }

    /// Rebuilds a simulator [`Packet`]. `id` is the receiver-local
    /// bookkeeping id, `now` stamps both timing fields, and
    /// `placeholder_src` fills the source of bulk frames until
    /// `NifdyUnit::receive_bulk` re-substitutes the dialog peer.
    pub fn into_packet(self, id: PacketId, placeholder_src: NodeId, now: Cycle) -> Packet {
        let src = match self.src {
            WireSource::Node(n) => n,
            WireSource::Dialog => placeholder_src,
        };
        Packet {
            id,
            src,
            dst: self.dst,
            lane: self.lane,
            size_words: self.size_words,
            wire: self.wire,
            user: self.user,
            stamp: PacketStamp {
                created: now,
                injected: now,
            },
        }
    }

    /// Encoded length of this packet in bytes, checksum trailer included.
    pub fn encoded_len(&self) -> usize {
        self.body_len() + CHECKSUM_LEN
    }

    /// Length of the frame body (everything before the checksum trailer).
    fn body_len(&self) -> usize {
        match self.wire {
            Wire::Ack(_) => ACK_BODY_FRAME_LEN,
            Wire::Data { piggy_ack, .. } => {
                let structured = DATA_BASE_LEN + if piggy_ack.is_some() { ACK_BODY_LEN } else { 0 };
                structured.max(BYTES_PER_WORD * usize::from(self.size_words))
            }
        }
    }
}

/// A liveness heartbeat: "node `src`, incarnation `epoch`, is alive". Sent
/// periodically by supervised endpoints on the reply lane; an epoch jump
/// tells the peer the sender restarted and its dialog state is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The node announcing liveness.
    pub src: NodeId,
    /// The node being kept alive.
    pub dst: NodeId,
    /// The sender's incarnation number, bumped on every restart.
    pub epoch: u32,
}

/// Everything a byte frame can decode into: a protocol packet or a
/// liveness heartbeat. [`decode_frame`] is the total decoder over both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFrame {
    /// A data or acknowledgment frame.
    Packet(WirePacket),
    /// A liveness/recovery heartbeat.
    Heartbeat(Heartbeat),
}

fn encode_ack_body(buf: &mut Vec<u8>, info: AckInfo) {
    match info {
        AckInfo::Scalar { grant, echo } => {
            let (code, dialog, window) = match grant {
                BulkGrant::NotRequested => (GRANT_NOT_REQUESTED, 0, 0),
                BulkGrant::Granted { dialog, window } => (GRANT_GRANTED, dialog, window),
                BulkGrant::Rejected => (GRANT_REJECTED, 0, 0),
            };
            let mut flags = code << GRANT_SHIFT;
            if echo {
                flags |= ACK_ECHO_OR_TERM;
            }
            buf.extend_from_slice(&[flags, dialog, window]);
        }
        AckInfo::Bulk {
            dialog,
            cum_seq,
            terminate,
        } => {
            let mut flags = ACK_KIND_BULK;
            if terminate {
                flags |= ACK_ECHO_OR_TERM;
            }
            buf.extend_from_slice(&[flags, dialog, cum_seq]);
        }
    }
}

fn decode_ack_body(body: [u8; ACK_BODY_LEN], base: usize) -> Result<AckInfo, WireError> {
    // Destructure instead of indexing: the decode path must be total.
    let [flags, byte1, byte2] = body;
    if flags & !(ACK_KIND_BULK | ACK_ECHO_OR_TERM | (0b11 << GRANT_SHIFT)) != 0 {
        return Err(WireError::ReservedFlags { byte: flags });
    }
    if flags & ACK_KIND_BULK != 0 {
        if flags >> GRANT_SHIFT != 0 {
            // Bulk acks have no grant field; those bits must be zero.
            return Err(WireError::ReservedFlags { byte: flags });
        }
        return Ok(AckInfo::Bulk {
            dialog: byte1,
            cum_seq: byte2,
            terminate: flags & ACK_ECHO_OR_TERM != 0,
        });
    }
    let grant = match (flags >> GRANT_SHIFT) & 0b11 {
        GRANT_NOT_REQUESTED | GRANT_REJECTED => {
            // The dialog/window bytes are undefined for these codes; require
            // the canonical zero so every frame has exactly one encoding.
            if byte1 != 0 {
                return Err(WireError::NonZeroPadding { at: base + 1 });
            }
            if byte2 != 0 {
                return Err(WireError::NonZeroPadding { at: base + 2 });
            }
            if (flags >> GRANT_SHIFT) & 0b11 == GRANT_NOT_REQUESTED {
                BulkGrant::NotRequested
            } else {
                BulkGrant::Rejected
            }
        }
        GRANT_GRANTED => BulkGrant::Granted {
            dialog: byte1,
            window: byte2,
        },
        code => return Err(WireError::BadGrant { code }),
    };
    Ok(AckInfo::Scalar {
        grant,
        echo: flags & ACK_ECHO_OR_TERM != 0,
    })
}

/// Encodes a packet into a fresh byte frame (checksum trailer included).
/// See the module docs for the layout. The inverse of [`decode`]:
/// `decode(&encode(&wp)) == Ok(wp)` for every encodable `wp`.
pub fn encode(wp: &WirePacket) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(wp, &mut buf);
    buf
}

/// [`encode`] into a recycled buffer: whatever `buf` held is discarded, its
/// allocation is kept, and every byte of the frame is written afresh.
pub fn encode_into(wp: &WirePacket, buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(wp.encoded_len());
    match wp.wire {
        Wire::Ack(info) => {
            let src = match wp.src {
                WireSource::Node(n) => n,
                // Unreachable for any `WirePacket` built by `from_packet`;
                // stay total and emit a self-addressed ack rather than tear
                // the encoder down.
                WireSource::Dialog => {
                    debug_assert!(false, "acks always carry their source");
                    wp.dst
                }
            };
            buf.push(FLAG_ACK | lane_bit(wp.lane));
            buf.extend_from_slice(&node_bytes(wp.dst));
            buf.extend_from_slice(&node_bytes(src));
            encode_ack_body(buf, info);
        }
        Wire::Data {
            bulk_request,
            bulk_exit,
            bulk,
            needs_ack,
            dup_bit,
            piggy_ack,
        } => {
            let mut flags = lane_bit(wp.lane);
            if bulk_request {
                flags |= FLAG_BULK_REQUEST;
            }
            if bulk_exit {
                flags |= FLAG_BULK_EXIT;
            }
            if bulk.is_some() {
                flags |= FLAG_IN_DIALOG;
            }
            if needs_ack {
                flags |= FLAG_NEEDS_ACK;
            }
            if dup_bit {
                flags |= FLAG_DUP;
            }
            if piggy_ack.is_some() {
                flags |= FLAG_PIGGY;
            }
            buf.push(flags);
            buf.extend_from_slice(&node_bytes(wp.dst));
            match (bulk, wp.src) {
                // §3: the {seq, dialog} pair occupies the source-id bytes.
                (Some(BulkTag { dialog, seq }), _) => buf.extend_from_slice(&[seq, dialog]),
                (None, WireSource::Node(n)) => buf.extend_from_slice(&node_bytes(n)),
                // Unreachable for any `WirePacket` built by `from_packet`;
                // stay total and fall back to the destination id.
                (None, WireSource::Dialog) => {
                    debug_assert!(false, "scalar frames always carry their source");
                    buf.extend_from_slice(&node_bytes(wp.dst));
                }
            }
            buf.extend_from_slice(&wp.size_words.to_le_bytes());
            buf.extend_from_slice(&wp.user.msg_id.to_le_bytes());
            buf.extend_from_slice(&wp.user.pkt_index.to_le_bytes());
            buf.extend_from_slice(&wp.user.msg_packets.to_le_bytes());
            buf.extend_from_slice(&wp.user.user_words.to_le_bytes());
            if let Some(info) = piggy_ack {
                encode_ack_body(buf, info);
            }
            buf.resize(wp.body_len(), 0);
        }
    }
    append_checksum(buf);
}

/// Encodes a liveness heartbeat frame (checksum trailer included).
pub fn encode_heartbeat(hb: &Heartbeat) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_heartbeat_into(hb, &mut buf);
    buf
}

/// [`encode_heartbeat`] into a recycled buffer, as [`encode_into`].
pub fn encode_heartbeat_into(hb: &Heartbeat, buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(HEARTBEAT_FRAME_LEN);
    buf.push(HEARTBEAT_FLAGS);
    buf.extend_from_slice(&node_bytes(hb.dst));
    buf.extend_from_slice(&node_bytes(hb.src));
    buf.extend_from_slice(&hb.epoch.to_le_bytes());
    append_checksum(buf);
}

/// Decodes a byte frame into a protocol packet. Total over arbitrary
/// input: every byte string yields `Ok` or a typed [`WireError`]; no input
/// panics (property-tested in `tests/codec_props.rs`). Heartbeat frames
/// are rejected here (`ReservedFlags`) — use [`decode_frame`] to accept
/// both kinds.
pub fn decode(bytes: &[u8]) -> Result<WirePacket, WireError> {
    decode_body(verify_checksum(bytes)?)
}

/// Decodes a byte frame into either a protocol packet or a heartbeat.
/// Total over arbitrary input, like [`decode`].
pub fn decode_frame(bytes: &[u8]) -> Result<WireFrame, WireError> {
    let body = verify_checksum(bytes)?;
    if byte_at(body, 0) == HEARTBEAT_FLAGS {
        return decode_heartbeat_body(body).map(WireFrame::Heartbeat);
    }
    decode_body(body).map(WireFrame::Packet)
}

/// Reads just the routing fields — destination node and lane — from an
/// encoded frame, without decoding or checksum-verifying it. Total over
/// arbitrary input: anything too short to carry the flag byte, the
/// destination id, and the checksum trailer returns `None`.
///
/// This is the demultiplexer's fast path: a daemon hosting many endpoints
/// behind one socket must pick the owning endpoint before it is worth
/// paying for a full [`decode_frame`] — which the endpoint's own port
/// still performs, so a frame with a corrupted destination merely lands at
/// (and is rejected by) the wrong endpoint's decoder, exactly as a
/// misrouted datagram would.
pub fn peek_route(frame: &[u8]) -> Option<(NodeId, Lane)> {
    if frame.len() < 3 + CHECKSUM_LEN {
        return None;
    }
    let lane = if byte_at(frame, 0) & FLAG_LANE != 0 {
        Lane::Reply
    } else {
        Lane::Request
    };
    Some((read_node(frame, 1), lane))
}

/// CRC-16/CCITT-FALSE over `bytes` (init `0xFFFF`, polynomial `0x1021`,
/// no reflection, no final xor).
fn crc16(bytes: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in bytes {
        crc ^= u16::from(b) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Appends the little-endian CRC-16 trailer over the body built so far.
fn append_checksum(buf: &mut Vec<u8>) {
    let crc = crc16(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Splits a frame into its body after verifying the checksum trailer.
fn verify_checksum(bytes: &[u8]) -> Result<&[u8], WireError> {
    // The shortest frame body is one flag byte; anything shorter than
    // body + trailer cannot be a frame at all.
    if bytes.len() < 1 + CHECKSUM_LEN {
        return Err(WireError::Truncated {
            need: 1 + CHECKSUM_LEN,
            got: bytes.len(),
        });
    }
    let split = bytes.len() - CHECKSUM_LEN;
    let body = tail_from(bytes, 0).get(..split).unwrap_or(&[]);
    let got = u16::from_le_bytes(arr_at(bytes, split));
    let expect = crc16(body);
    if got != expect {
        return Err(WireError::Checksum { expect, got });
    }
    Ok(body)
}

/// Decodes a heartbeat frame body (flag byte already matched).
fn decode_heartbeat_body(bytes: &[u8]) -> Result<Heartbeat, WireError> {
    if bytes.len() != HEARTBEAT_BODY_LEN {
        return Err(WireError::LengthMismatch {
            expect: HEARTBEAT_BODY_LEN,
            got: bytes.len(),
        });
    }
    Ok(Heartbeat {
        dst: read_node(bytes, 1),
        src: read_node(bytes, 3),
        epoch: u32::from_le_bytes(arr_at(bytes, 5)),
    })
}

/// Decodes a packet frame body (checksum already stripped and verified).
fn decode_body(bytes: &[u8]) -> Result<WirePacket, WireError> {
    let &[flags, ..] = bytes else {
        return Err(WireError::Truncated { need: 1, got: 0 });
    };
    let lane = if flags & FLAG_LANE != 0 {
        Lane::Reply
    } else {
        Lane::Request
    };
    if flags & FLAG_ACK != 0 {
        if flags & !(FLAG_ACK | FLAG_LANE) != 0 {
            return Err(WireError::ReservedFlags { byte: flags });
        }
        if lane == Lane::Request {
            return Err(WireError::AckOnRequestLane);
        }
        if bytes.len() < ACK_BODY_FRAME_LEN {
            return Err(WireError::Truncated {
                need: ACK_BODY_FRAME_LEN,
                got: bytes.len(),
            });
        }
        if bytes.len() != ACK_BODY_FRAME_LEN {
            return Err(WireError::LengthMismatch {
                expect: ACK_BODY_FRAME_LEN,
                got: bytes.len(),
            });
        }
        let info = decode_ack_body(arr_at(bytes, 5), 5)?;
        return Ok(WirePacket {
            src: WireSource::Node(read_node(bytes, 3)),
            dst: read_node(bytes, 1),
            lane,
            size_words: nifdy_net::ACK_WORDS,
            wire: Wire::Ack(info),
            user: UserData::default(),
        });
    }

    let structured = DATA_BASE_LEN
        + if flags & FLAG_PIGGY != 0 {
            ACK_BODY_LEN
        } else {
            0
        };
    if bytes.len() < structured {
        return Err(WireError::Truncated {
            need: structured,
            got: bytes.len(),
        });
    }
    let size_words = u16::from_le_bytes(arr_at(bytes, 5));
    if size_words == 0 {
        return Err(WireError::ZeroSize);
    }
    let expect = structured.max(BYTES_PER_WORD * usize::from(size_words));
    if bytes.len() != expect {
        return Err(WireError::LengthMismatch {
            expect,
            got: bytes.len(),
        });
    }
    if let Some(pad) = tail_from(bytes, structured).iter().position(|&b| b != 0) {
        return Err(WireError::NonZeroPadding {
            at: structured + pad,
        });
    }
    let (src, bulk) = if flags & FLAG_IN_DIALOG != 0 {
        (
            WireSource::Dialog,
            Some(BulkTag {
                seq: byte_at(bytes, 3),
                dialog: byte_at(bytes, 4),
            }),
        )
    } else {
        (WireSource::Node(read_node(bytes, 3)), None)
    };
    let piggy_ack = if flags & FLAG_PIGGY != 0 {
        Some(decode_ack_body(
            arr_at(bytes, DATA_BASE_LEN),
            DATA_BASE_LEN,
        )?)
    } else {
        None
    };
    Ok(WirePacket {
        src,
        dst: read_node(bytes, 1),
        lane,
        size_words,
        wire: Wire::Data {
            bulk_request: flags & FLAG_BULK_REQUEST != 0,
            bulk_exit: flags & FLAG_BULK_EXIT != 0,
            bulk,
            needs_ack: flags & FLAG_NEEDS_ACK != 0,
            dup_bit: flags & FLAG_DUP != 0,
            piggy_ack,
        },
        user: UserData {
            msg_id: u64::from_le_bytes(arr_at(bytes, 7)),
            pkt_index: u32::from_le_bytes(arr_at(bytes, 15)),
            msg_packets: u32::from_le_bytes(arr_at(bytes, 19)),
            user_words: u16::from_le_bytes(arr_at(bytes, 23)),
        },
    })
}

#[inline]
fn lane_bit(lane: Lane) -> u8 {
    match lane {
        Lane::Request => 0,
        Lane::Reply => FLAG_LANE,
    }
}

#[inline]
fn node_bytes(node: NodeId) -> [u8; 2] {
    // NodeId enforces the paper's 16-bit bound at construction.
    (node.index() as u16).to_le_bytes()
}

#[inline]
fn read_node(bytes: &[u8], at: usize) -> NodeId {
    NodeId::new(usize::from(u16::from_le_bytes(arr_at(bytes, at))))
}

/// Byte at `at`, or `0` past the end. Decode pre-validates every frame
/// length, so the default is never observed; totality (no indexing, no
/// panic) is what the decode path requires.
#[inline]
fn byte_at(bytes: &[u8], at: usize) -> u8 {
    bytes.get(at).copied().unwrap_or(0)
}

/// Fixed-size window starting at `at`, zero-filled past the end of the
/// input. Same totality contract as [`byte_at`].
#[inline]
fn arr_at<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    for (dst, src) in out.iter_mut().zip(bytes.iter().skip(at)) {
        *dst = *src;
    }
    out
}

/// Suffix starting at `at`; empty when `at` is out of range.
#[inline]
fn tail_from(bytes: &[u8], at: usize) -> &[u8] {
    bytes.get(at..).unwrap_or(&[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_route_agrees_with_full_decode_on_every_frame_kind() {
        let hb = Heartbeat {
            src: NodeId::new(3),
            dst: NodeId::new(1_000),
            epoch: 9,
        };
        let frame = encode_heartbeat(&hb);
        assert_eq!(peek_route(&frame), Some((NodeId::new(1_000), Lane::Reply)));

        let pkt = Packet::data(PacketId::new(1), NodeId::new(2), NodeId::new(513), 6);
        let frame = encode(&WirePacket::from_packet(&pkt));
        assert_eq!(peek_route(&frame), Some((NodeId::new(513), pkt.lane)));

        assert_eq!(peek_route(&[]), None, "total on empty input");
        assert_eq!(peek_route(&[0xFF; 4]), None, "total on short input");
    }

    fn round_trip(wp: WirePacket) {
        let bytes = encode(&wp);
        assert_eq!(bytes.len(), wp.encoded_len());
        assert_eq!(decode(&bytes), Ok(wp), "frame: {bytes:02x?}");
    }

    /// No stale byte of a recycled buffer survives: encoding over a dirty,
    /// longer buffer yields exactly the bytes a fresh encode does, for
    /// every flag combination, ack shape and a spread of sizes.
    #[test]
    fn encode_into_a_dirty_longer_buffer_equals_a_fresh_encode() {
        let acks = [
            AckInfo::Scalar {
                grant: BulkGrant::Granted {
                    dialog: 7,
                    window: 8,
                },
                echo: true,
            },
            AckInfo::Bulk {
                dialog: 255,
                cum_seq: 254,
                terminate: true,
            },
        ];
        let mut dirty = Vec::new();
        let mut check = |wp: WirePacket| {
            let fresh = encode(&wp);
            dirty.clear();
            dirty.resize(fresh.len() + 41, 0xA5);
            encode_into(&wp, &mut dirty);
            assert_eq!(dirty, fresh, "{wp:?}");
        };
        for bits in 0u8..64 {
            let flag = |b: u8| bits & (1 << b) != 0;
            for size_words in [1u16, 6, 7, 8, 64] {
                check(WirePacket {
                    src: if flag(0) {
                        WireSource::Dialog
                    } else {
                        WireSource::Node(NodeId::new(0xBEEF))
                    },
                    dst: NodeId::new(0x1234),
                    lane: Lane::Request,
                    size_words,
                    wire: Wire::Data {
                        bulk_request: flag(1),
                        bulk_exit: flag(2),
                        bulk: flag(0).then_some(BulkTag {
                            dialog: 200,
                            seq: 255,
                        }),
                        needs_ack: flag(3),
                        dup_bit: flag(4),
                        piggy_ack: flag(5).then_some(acks[usize::from(bits & 1)]),
                    },
                    user: UserData {
                        msg_id: u64::MAX - u64::from(bits),
                        pkt_index: u32::from(size_words),
                        msg_packets: 9,
                        user_words: 5,
                    },
                });
            }
        }
        for info in acks {
            check(WirePacket {
                src: WireSource::Node(NodeId::new(4)),
                dst: NodeId::new(0),
                lane: Lane::Reply,
                size_words: nifdy_net::ACK_WORDS,
                wire: Wire::Ack(info),
                user: UserData::default(),
            });
        }
        let hb = Heartbeat {
            src: NodeId::new(9),
            dst: NodeId::new(65_535),
            epoch: 0xDEAD_BEEF,
        };
        let mut buf = vec![0xA5; 64];
        encode_heartbeat_into(&hb, &mut buf);
        assert_eq!(buf, encode_heartbeat(&hb));
    }

    #[test]
    fn scalar_data_round_trips() {
        round_trip(WirePacket {
            src: WireSource::Node(NodeId::new(7)),
            dst: NodeId::new(65_535),
            lane: Lane::Request,
            size_words: 6,
            wire: Wire::Data {
                bulk_request: true,
                bulk_exit: false,
                bulk: None,
                needs_ack: true,
                dup_bit: true,
                piggy_ack: None,
            },
            user: UserData {
                msg_id: u64::MAX,
                pkt_index: 3,
                msg_packets: 9,
                user_words: 5,
            },
        });
    }

    #[test]
    fn bulk_data_drops_the_source_bits() {
        let wp = WirePacket {
            src: WireSource::Dialog,
            dst: NodeId::new(2),
            lane: Lane::Request,
            size_words: 8,
            wire: Wire::Data {
                bulk_request: false,
                bulk_exit: true,
                bulk: Some(BulkTag {
                    dialog: 255,
                    seq: 255,
                }),
                needs_ack: true,
                dup_bit: false,
                piggy_ack: Some(AckInfo::Bulk {
                    dialog: 1,
                    cum_seq: 200,
                    terminate: true,
                }),
            },
            user: UserData::default(),
        };
        let bytes = encode(&wp);
        // The {seq, dialog} pair sits exactly where a scalar source would.
        assert_eq!(bytes[3], 255, "seq in the low source byte");
        assert_eq!(bytes[4], 255, "dialog in the high source byte");
        round_trip(wp);
    }

    #[test]
    fn every_ack_shape_round_trips() {
        let infos = [
            AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: false,
            },
            AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: true,
            },
            AckInfo::Scalar {
                grant: BulkGrant::Granted {
                    dialog: 3,
                    window: 64,
                },
                echo: false,
            },
            AckInfo::Scalar {
                grant: BulkGrant::Rejected,
                echo: true,
            },
            AckInfo::Bulk {
                dialog: 0,
                cum_seq: 0,
                terminate: false,
            },
            AckInfo::Bulk {
                dialog: 255,
                cum_seq: 255,
                terminate: true,
            },
        ];
        for info in infos {
            round_trip(WirePacket {
                src: WireSource::Node(NodeId::new(4)),
                dst: NodeId::new(0),
                lane: Lane::Reply,
                size_words: nifdy_net::ACK_WORDS,
                wire: Wire::Ack(info),
                user: UserData::default(),
            });
        }
    }

    #[test]
    fn packet_conversion_round_trips_scalar() {
        let pkt = Packet::data(PacketId::new(9), NodeId::new(1), NodeId::new(2), 6);
        let wp = WirePacket::from_packet(&pkt);
        let back = wp.into_packet(PacketId::new(9), NodeId::new(2), Cycle::ZERO);
        assert_eq!(back.src, pkt.src);
        assert_eq!(back.dst, pkt.dst);
        assert_eq!(back.wire, pkt.wire);
        assert_eq!(back.size_words, pkt.size_words);
    }

    #[test]
    fn bulk_conversion_substitutes_placeholder() {
        let mut pkt = Packet::data(PacketId::new(0), NodeId::new(5), NodeId::new(6), 8);
        pkt.wire = Wire::Data {
            bulk_request: false,
            bulk_exit: false,
            bulk: Some(BulkTag { dialog: 0, seq: 3 }),
            needs_ack: true,
            dup_bit: false,
            piggy_ack: None,
        };
        let wp = WirePacket::from_packet(&pkt);
        assert_eq!(wp.src, WireSource::Dialog, "bulk frames lose the source");
        let back = wp.into_packet(PacketId::new(0), NodeId::new(6), Cycle::new(4));
        assert_eq!(
            back.src,
            NodeId::new(6),
            "placeholder until the dialog table re-substitutes"
        );
    }

    /// Appends a valid checksum trailer to a hand-built frame body, so the
    /// structural validators past the trailer check can be exercised.
    fn with_crc(mut body: Vec<u8>) -> Vec<u8> {
        append_checksum(&mut body);
        body
    }

    #[test]
    fn decode_rejects_the_documented_corruptions() {
        assert_eq!(decode(&[]), Err(WireError::Truncated { need: 3, got: 0 }));
        // Ack with a reserved data flag set.
        assert_eq!(
            decode(&with_crc(vec![FLAG_ACK | FLAG_DUP, 0, 0, 0, 0, 0, 0, 0])),
            Err(WireError::ReservedFlags {
                byte: FLAG_ACK | FLAG_DUP
            })
        );
        // Ack claiming the request lane.
        assert_eq!(
            decode(&with_crc(vec![FLAG_ACK, 0, 0, 0, 0, 0, 0, 0])),
            Err(WireError::AckOnRequestLane)
        );
        // Grant code 3 does not exist.
        let mut ack = vec![FLAG_ACK | FLAG_LANE, 0, 0, 0, 0, 0b11 << GRANT_SHIFT, 0, 0];
        assert_eq!(
            decode(&with_crc(ack.clone())),
            Err(WireError::BadGrant { code: 3 })
        );
        // Oversized ack.
        ack[5] = 0;
        ack.push(0);
        assert_eq!(
            decode(&with_crc(ack)),
            Err(WireError::LengthMismatch { expect: 8, got: 9 })
        );
        // Data frame with zero size.
        let mut data = vec![0u8; DATA_BASE_LEN];
        assert_eq!(decode(&with_crc(data.clone())), Err(WireError::ZeroSize));
        // Nonzero padding.
        data[5] = 8; // size_words = 8 -> 32-byte body
        data.resize(32, 0);
        data[31] = 1;
        assert_eq!(
            decode(&with_crc(data)),
            Err(WireError::NonZeroPadding { at: 31 })
        );
    }

    #[test]
    fn checksum_is_verified_before_any_field() {
        let wp = WirePacket {
            src: WireSource::Node(NodeId::new(3)),
            dst: NodeId::new(4),
            lane: Lane::Request,
            size_words: 6,
            wire: Wire::Data {
                bulk_request: false,
                bulk_exit: false,
                bulk: None,
                needs_ack: true,
                dup_bit: false,
                piggy_ack: None,
            },
            user: UserData::default(),
        };
        let mut bytes = encode(&wp);
        assert_eq!(bytes.len(), wp.encoded_len());
        // Corrupt one body byte: the checksum rejects before field decode.
        bytes[7] ^= 0x40;
        assert!(
            matches!(decode(&bytes), Err(WireError::Checksum { .. })),
            "corrupted body must fail the trailer check"
        );
        // Corrupt only the trailer: same rejection.
        bytes[7] ^= 0x40;
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(matches!(decode(&bytes), Err(WireError::Checksum { .. })));
    }

    #[test]
    fn heartbeat_round_trips_and_is_invisible_to_packet_decode() {
        let hb = Heartbeat {
            src: NodeId::new(9),
            dst: NodeId::new(65_535),
            epoch: 0xDEAD_BEEF,
        };
        let bytes = encode_heartbeat(&hb);
        assert_eq!(bytes.len(), HEARTBEAT_FRAME_LEN);
        assert_eq!(decode_frame(&bytes), Ok(WireFrame::Heartbeat(hb)));
        // The packet decoder must reject a heartbeat (its flag byte carries
        // a bit that is reserved for acks), never misparse it as an ack.
        assert_eq!(
            decode(&bytes),
            Err(WireError::ReservedFlags {
                byte: HEARTBEAT_FLAGS
            })
        );
    }

    #[test]
    fn decode_frame_handles_packets_too() {
        let wp = WirePacket {
            src: WireSource::Node(NodeId::new(1)),
            dst: NodeId::new(2),
            lane: Lane::Reply,
            size_words: nifdy_net::ACK_WORDS,
            wire: Wire::Ack(AckInfo::Scalar {
                grant: BulkGrant::NotRequested,
                echo: true,
            }),
            user: UserData::default(),
        };
        assert_eq!(decode_frame(&encode(&wp)), Ok(WireFrame::Packet(wp)));
        // A truncated heartbeat fails cleanly.
        let hb = encode_heartbeat(&Heartbeat {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            epoch: 7,
        });
        for cut in 0..hb.len() {
            assert!(decode_frame(&hb[..cut]).is_err(), "prefix {cut} decoded");
        }
    }
}
