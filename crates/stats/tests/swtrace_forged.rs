//! `swtrace-v1` entries that pass the checksum but lie about their
//! contents: a forged sample count must not make the reader reserve memory
//! the entry's length cannot back, and a counter cut off mid-varint must
//! read as truncation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

use softwatt_stats::hash::fnv1a;
use softwatt_stats::swtrace::{SWTRACE_MAGIC, SWTRACE_VERSION};
use softwatt_stats::varint::put_varint;
use softwatt_stats::{Mode, PerfTrace, UnitEvent};

/// Forwards every request to the system allocator and remembers the
/// largest single request the calling thread made.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: both methods forward their arguments unchanged to `System`, so
// its guarantees hold for every caller that meets `GlobalAlloc`'s
// contract. The bookkeeping in `note` never allocates: the thread-local is
// a const-initialised `Cell<usize>` with no destructor to register.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// A checksum-valid entry with empty requests, idle rates and services,
/// whose SEGMENTS section carries `segments` verbatim.
fn entry(segments: &[u8]) -> Vec<u8> {
    fn section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
        out.push(tag);
        put_varint(out, payload.len() as u64);
        out.extend_from_slice(payload);
    }
    let mut header = Vec::new();
    header.extend_from_slice(&200.0e6f64.to_bits().to_le_bytes());
    header.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    for field in [100, 0, 0, 0] {
        put_varint(&mut header, field);
    }
    let mut out = SWTRACE_MAGIC.to_vec();
    put_varint(&mut out, SWTRACE_VERSION);
    section(&mut out, 0x01, &header); // HEADER
    section(&mut out, 0x02, &[]); // ANNOTATION
    section(&mut out, 0x03, &[0]); // REQUESTS: none
    section(&mut out, 0x04, &[0]); // IDLERATES: none
    section(&mut out, 0x05, &[0]); // SERVICES: none
    section(&mut out, 0x06, segments); // SEGMENTS
    section(&mut out, 0x00, &[]); // END
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Fewest encoded bytes of one sample, every varint one byte long.
const MIN_SAMPLE_BYTES: usize = 1 + Mode::COUNT + Mode::COUNT * UnitEvent::COUNT;

#[test]
fn forged_sample_count_fails_without_overallocating() {
    // One segment claiming 2^20 samples, backed by eight all-zero ones:
    // enough bytes that one decoded sample fits within the entry's length.
    let mut segments = vec![1];
    put_varint(&mut segments, 1 << 20);
    segments.resize(segments.len() + 8 * MIN_SAMPLE_BYTES, 0);
    let forged = entry(&segments);

    LARGEST.with(|largest| largest.set(0));
    let err = PerfTrace::from_binary(&forged).unwrap_err();
    let largest = LARGEST.with(Cell::get);

    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    assert!(
        largest <= forged.len(),
        "a {}-byte entry reserved {largest} bytes in one request",
        forged.len()
    );
}

#[test]
fn truncated_counter_varint_is_unexpected_eof() {
    let mut counter = Vec::new();
    put_varint(&mut counter, 1 << 35);
    for cut in 1..counter.len() {
        // One segment, one sample: end-cycle delta, four mode cycles,
        // three one-byte counters, then a wide counter cut short.
        let mut segments = vec![1, 1];
        put_varint(&mut segments, 200);
        segments.extend_from_slice(&[100, 0, 0, 0, 5, 0, 127]);
        segments.extend_from_slice(&counter[..cut]);
        let err = PerfTrace::from_binary(&entry(&segments)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}: {err}");
    }
}

#[test]
fn section_cut_inside_two_byte_counters_is_unexpected_eof() {
    // One segment, one zero-cycle sample whose every counter takes two
    // bytes (128..=16_383), the block decoder's inlined wide case.
    let mut segments = vec![1, 1, 0, 0, 0, 0, 0];
    let counters: Vec<u64> = (0..(Mode::COUNT * UnitEvent::COUNT) as u64)
        .map(|i| 128 + 113 * i)
        .collect();
    for &n in &counters {
        let before = segments.len();
        put_varint(&mut segments, n);
        assert_eq!(segments.len() - before, 2, "{n} is a two-byte varint");
    }

    let (trace, _) = PerfTrace::from_binary(&entry(&segments)).expect("uncut entry decodes");
    let sample = &trace.segments[0][0];
    let decoded: Vec<u64> = Mode::ALL
        .iter()
        .flat_map(|&m| sample.events.mode(m).counts().to_vec())
        .collect();
    assert_eq!(decoded, counters);

    for cut in 0..segments.len() {
        let err = PerfTrace::from_binary(&entry(&segments[..cut])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}: {err}");
    }
}
