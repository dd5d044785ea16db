//! Frame-boundary-aligned filter insertion on a video stream.
//!
//! The paper's example for insertion points: "since the FEC filter may be
//! specific to video streams (e.g., placing more redundancy in I frames than
//! in B frames), we need to consider the format of the stream in order to
//! start the FEC filter at a 'frame boundary' in the stream."  This example
//! streams an MPEG-like GoP through a chain, requests a frame-aligned FEC
//! encoder mid-frame, and shows that the insertion is deferred until the
//! next frame boundary.
//!
//! Run with:
//!
//! ```text
//! cargo run --example video_frame_boundary
//! ```

use rapidware::filters::{FecEncoderFilter, FilterChain, RateLimiterFilter};
use rapidware::media::{VideoConfig, VideoSource};
use rapidware::packet::StreamId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut source = VideoSource::new(StreamId::new(9), VideoConfig::conference_quality());
    let mut chain = FilterChain::new();
    // A rate limiter sized for the 2 Mbps wireless hop is installed from the
    // start; it sheds B frames first when the stream bursts.
    chain.push_back(Box::new(RateLimiterFilter::with_bitrate(1_500_000)))?;

    // Send the first frame, one packet at a time.
    let first_frame = source.next_frame();
    println!("frame 0: {} packets ({})", first_frame.len(), first_frame[0].kind());
    let mut forwarded = 0usize;
    let mut iter = first_frame.into_iter();
    // Deliver only half of the frame ...
    for packet in iter.by_ref().take(4) {
        forwarded += chain.process(packet)?.len();
    }

    // ... then ask for a *frame-aligned* FEC encoder.  The chain defers it.
    chain.insert(1, Box::new(FecEncoderFilter::fec_6_4()?.frame_aligned()))?;
    println!(
        "requested frame-aligned FEC insertion: active filters = {:?}, deferred = {}",
        chain.names(),
        chain.pending_insertions()
    );

    // The rest of frame 0 is still *not* FEC-protected (no parity emitted).
    for packet in iter {
        forwarded += chain.process(packet)?.len();
    }
    println!("after finishing frame 0: filters = {:?}", chain.names());

    // Frame 1 starts with a boundary packet: the encoder activates there.
    let mut parity = 0usize;
    for frame_index in 1..=9 {
        for packet in source.next_frame() {
            for out in chain.process(packet)? {
                if out.kind().is_parity() {
                    parity += 1;
                } else {
                    forwarded += 1;
                }
            }
        }
        if frame_index == 1 {
            println!(
                "after the frame-1 boundary: filters = {:?} (FEC now active)",
                chain.names()
            );
        }
    }
    for out in chain.flush()? {
        if out.kind().is_parity() {
            parity += 1;
        } else {
            forwarded += 1;
        }
    }

    println!("\nforwarded {forwarded} video packets, emitted {parity} parity packets");
    Ok(())
}
