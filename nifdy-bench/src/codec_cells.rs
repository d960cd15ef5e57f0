//! Kernel cells for the wire codec: `encode`, `decode_frame` and
//! `peek_route` timed in isolation over real frames (the first frames the
//! timing carrier saw on `udp-saturated`, so the data/ack mix is the
//! workload's own). Each cell loops over the frame set for at least
//! [`WINDOW_NS`] and reports the median of [`REPEATS`] windows.

use std::hint::black_box;

use nifdy_wire::{decode_frame, encode, peek_route, WireFrame, WirePacket};

use crate::kernel::{Clock, Summary};

const WINDOW_NS: u64 = 200_000_000;
const REPEATS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Cells {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub peek_route_ns: f64,
}

/// Median over [`REPEATS`] windows of the mean cost of one `op` call,
/// passing over `items` until the window is full.
fn cell<T>(items: &[T], clock: Clock, mut op: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    // One untimed pass warms the caches and the allocator's free lists.
    items.iter().for_each(&mut op);
    let windows: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = clock.ns();
            let mut calls = 0u64;
            loop {
                items.iter().for_each(&mut op);
                calls += items.len() as u64;
                let elapsed = clock.ns() - t0;
                if elapsed >= WINDOW_NS {
                    break elapsed as f64 / calls as f64;
                }
            }
        })
        .collect();
    Summary::of(&windows).median
}

pub fn run(frames: &[Vec<u8>], clock: Clock) -> Cells {
    let packets: Vec<WirePacket> = frames
        .iter()
        .filter_map(|f| match decode_frame(f) {
            Ok(WireFrame::Packet(p)) => Some(p),
            _ => None,
        })
        .collect();
    Cells {
        encode_ns: cell(&packets, clock, |p| {
            black_box(encode(black_box(p)));
        }),
        decode_ns: cell(frames, clock, |f| {
            black_box(decode_frame(black_box(f)).is_ok());
        }),
        peek_route_ns: cell(frames, clock, |f| {
            black_box(peek_route(black_box(f)));
        }),
    }
}
