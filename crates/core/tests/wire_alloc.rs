//! The round-1 decoder allocates in proportion to the bytes it was given,
//! never to a number it read from them: every truncation of a valid
//! payload and every forged length prefix is decoded under an allocator
//! that records the largest single request, and that request stays within
//! twice the payload (a candidate's in-memory head is 40 bytes against 20
//! on the wire) plus the block's fixed header.
//!
//! One test in this file, so the process-wide allocator below has no
//! other test thread to observe; the recording is per thread regardless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use netclus::shard::{Candidate, ShardRoundOne, WireReader};
use netclus_roadnet::NodeId;

thread_local! {
    /// Largest allocation requested on this thread while recording.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised
// thread-local `Cell` (no allocation, no destructor) through `try_with`,
// which cannot panic.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| {
            if let Some(max) = l.get() {
                l.set(Some(max.max(layout.size())));
            }
        });
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// Largest single allocation `f` requested on this thread.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(Some(0)));
    f();
    LARGEST.with(|l| l.replace(None)).expect("recording was on")
}

#[test]
fn decode_never_allocates_past_a_small_multiple_of_the_payload() {
    let round = ShardRoundOne {
        candidates: vec![
            Candidate::from_pairs(NodeId(7), 3, 2.5, vec![(0, 120.25), (4, 300.5), (9, 301.0)]),
            Candidate::from_pairs(NodeId(11), 3, 1.0 / 3.0, vec![]),
            Candidate::from_pairs(NodeId(2), 5, 0.25, vec![(1, 7.0)]),
        ],
        k: 4,
        instance: 1,
        representatives: 9,
        local_utility: 2.5 + 1.0 / 3.0 + 0.25,
        elapsed: Duration::from_micros(1234),
        solve_us: 890,
        shard_hint: 1,
    };
    let mut valid = Vec::new();
    round.encode_into(&mut valid);
    // Offsets of the candidate count and of the three row lengths.
    let prefixes = [0, 4 + 16, 4 + 20 + 36 + 16, 4 + 20 + 36 + 20 + 16];

    let mut payloads: Vec<Vec<u8>> = (0..=valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    for at in prefixes {
        for forged in [5u32, 4_096, 1 << 20, u32::MAX] {
            let mut bad = valid.clone();
            bad[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            payloads.push(bad);
        }
    }
    for payload in &payloads {
        let mut outcome = None;
        let largest = largest_allocation(|| {
            outcome = Some(ShardRoundOne::decode_from(
                &mut WireReader::new(payload),
                4_096,
            ));
        });
        let decoded = outcome.expect("decode ran");
        assert_eq!(
            decoded.is_ok(),
            *payload == valid,
            "only the honest payload decodes"
        );
        assert!(
            largest <= 2 * payload.len() + 64,
            "a {}-byte payload made the decoder ask for {largest} bytes at once",
            payload.len()
        );
    }
}
