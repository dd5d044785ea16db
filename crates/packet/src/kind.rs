//! Packet kinds and media frame types.

use std::fmt;

use crate::id::BlockId;

/// The type of a video frame in an MPEG-style group of pictures.
///
/// The paper motivates frame-type awareness for FEC filters ("placing more
/// redundancy in I frames than in B frames") and for choosing insertion
/// points ("start the FEC filter at a frame boundary in the stream").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FrameType {
    /// Intra-coded frame: self-contained, most important.
    I,
    /// Predicted frame: depends on the previous I/P frame.
    P,
    /// Bidirectionally predicted frame: least important.
    B,
}

impl FrameType {
    /// Relative importance used by priority-aware filters: higher is more
    /// important.
    pub fn priority(self) -> u8 {
        match self {
            FrameType::I => 2,
            FrameType::P => 1,
            FrameType::B => 0,
        }
    }
}

impl fmt::Display for FrameType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameType::I => write!(f, "I"),
            FrameType::P => write!(f, "P"),
            FrameType::B => write!(f, "B"),
        }
    }
}

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A block of PCM audio samples.
    AudioData,
    /// Part of a video frame of the given type; `boundary` marks the first
    /// packet of a frame (the insertion points the paper cares about).
    VideoFrame {
        /// The frame type this packet belongs to.
        frame: FrameType,
        /// `true` if this packet starts a new frame.
        boundary: bool,
    },
    /// Opaque application data (e.g. a web resource multicast by Pavilion).
    Data,
    /// An FEC parity packet produced by the encoder filter.
    Parity {
        /// Block this parity packet belongs to.
        block: BlockId,
        /// Index of this packet within the encoded block (`k..n`).
        index: u8,
        /// Number of source packets in the block.
        k: u8,
        /// Total number of encoded packets in the block.
        n: u8,
    },
    /// An in-band control or keep-alive message.
    Control,
}

impl PacketKind {
    /// Returns `true` for packets that carry application data (as opposed to
    /// parity or control traffic).
    pub fn is_payload(self) -> bool {
        matches!(
            self,
            PacketKind::AudioData | PacketKind::VideoFrame { .. } | PacketKind::Data
        )
    }

    /// Returns `true` for FEC parity packets.
    pub fn is_parity(self) -> bool {
        matches!(self, PacketKind::Parity { .. })
    }

    /// Returns `true` if a filter may be spliced into the stream immediately
    /// before a packet of this kind (a "frame boundary" in the paper's
    /// terms).  Audio blocks and standalone data packets are always
    /// boundaries; video packets only at the start of a frame.
    pub fn is_insertion_boundary(self) -> bool {
        match self {
            PacketKind::AudioData | PacketKind::Data | PacketKind::Control => true,
            PacketKind::VideoFrame { boundary, .. } => boundary,
            PacketKind::Parity { .. } => false,
        }
    }

    /// Compact one-byte tag used by the wire format.
    pub(crate) fn tag(self) -> u8 {
        match self {
            PacketKind::AudioData => 0,
            PacketKind::VideoFrame { .. } => 1,
            PacketKind::Data => 2,
            PacketKind::Parity { .. } => 3,
            PacketKind::Control => 4,
        }
    }
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketKind::AudioData => write!(f, "audio"),
            PacketKind::VideoFrame { frame, boundary } => {
                if *boundary {
                    write!(f, "video-{frame}(boundary)")
                } else {
                    write!(f, "video-{frame}")
                }
            }
            PacketKind::Data => write!(f, "data"),
            PacketKind::Parity { block, index, k, n } => {
                write!(f, "parity-{index}/{n} (k={k}, {block})")
            }
            PacketKind::Control => write!(f, "control"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_priorities_order_i_p_b() {
        assert!(FrameType::I.priority() > FrameType::P.priority());
        assert!(FrameType::P.priority() > FrameType::B.priority());
    }

    #[test]
    fn payload_classification() {
        assert!(PacketKind::AudioData.is_payload());
        assert!(PacketKind::Data.is_payload());
        assert!(PacketKind::VideoFrame {
            frame: FrameType::I,
            boundary: true
        }
        .is_payload());
        assert!(!PacketKind::Control.is_payload());
        let parity = PacketKind::Parity {
            block: BlockId::new(0),
            index: 4,
            k: 4,
            n: 6,
        };
        assert!(!parity.is_payload());
        assert!(parity.is_parity());
    }

    #[test]
    fn insertion_boundaries() {
        assert!(PacketKind::AudioData.is_insertion_boundary());
        assert!(PacketKind::VideoFrame {
            frame: FrameType::I,
            boundary: true
        }
        .is_insertion_boundary());
        assert!(!PacketKind::VideoFrame {
            frame: FrameType::B,
            boundary: false
        }
        .is_insertion_boundary());
        assert!(!PacketKind::Parity {
            block: BlockId::new(1),
            index: 5,
            k: 4,
            n: 6
        }
        .is_insertion_boundary());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(PacketKind::AudioData.to_string(), "audio");
        assert!(PacketKind::Parity {
            block: BlockId::new(3),
            index: 4,
            k: 4,
            n: 6
        }
        .to_string()
        .contains("parity-4/6"));
        assert_eq!(
            PacketKind::VideoFrame {
                frame: FrameType::I,
                boundary: true
            }
            .to_string(),
            "video-I(boundary)"
        );
    }
}
