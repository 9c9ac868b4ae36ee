//! Fuzzing of the snapshot decoders.
//!
//! A snapshot stream or blob may come from disk or from the wire, so
//! every decoder must treat it as hostile: corrupt input surfaces as a
//! [`SnapDecodeError`], never as a panic, a silently different machine
//! or an allocation sized by a forged length field. The corpus is the
//! quiesced state streams of shipped scenarios (and the blobs wrapping
//! them); each case mutates one — bit flips, truncations, splices of two
//! streams, forged 64-bit words — or draws random bytes, and requires:
//!
//! * `Soc::load_state` into a fresh skeleton either fails or yields a
//!   machine whose re-recorded stream equals the input byte for byte;
//! * `SnapshotBlob::decode` either fails or re-encodes to the input;
//! * a decode allocates at most a small multiple of its input, so a
//!   declared length larger than the bytes left fails before anything
//!   sized by it is allocated.

use fgqos::scenario::{load_scenario_text, ScenarioSpec};
use fgqos::sim::snapshot::SocSnapshot;
use fgqos::sim::system::Soc;
use fgqos::sim::{SnapDecodeError, SnapshotBlob};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

/// Counts the bytes this thread asks the allocator for, so a decode's
/// allocation can be bounded without seeing other test threads'.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local with no destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the bytes it allocated.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Allocation a decode of `input_len` bytes may make: the decoded
/// state itself is bounded by the input (the transaction arena's slot
/// columns are the widest at ~52 bytes per 8 input bytes), so anything
/// beyond a small multiple means a forged length was trusted.
fn alloc_bound(input_len: usize) -> u64 {
    16 * input_len as u64 + (256 << 10)
}

/// Scenarios whose state streams seed the corpus: phased sources,
/// kernels, weighted arbitration, refresh storms, policy controllers.
const CORPUS: [&str; 4] = ["demo", "kernels", "rogue-dma", "controller-crash"];

struct Seed {
    text: String,
    /// Quiesced state streams at two boundaries.
    streams: [Vec<u8>; 2],
    /// The encoded blob of the first stream.
    blob: Vec<u8>,
}

fn corpus() -> &'static [Seed] {
    static CORPUS_SEEDS: OnceLock<Vec<Seed>> = OnceLock::new();
    CORPUS_SEEDS.get_or_init(|| {
        CORPUS
            .iter()
            .map(|name| {
                let path = format!("{}/scenarios/{name}.fgq", env!("CARGO_MANIFEST_DIR"));
                let text = load_scenario_text(&path).expect("scenario loads");
                let capture = |cycles: u64| {
                    let mut soc = skeleton(&text);
                    soc.run(cycles);
                    soc.quiesce_point(1_000_000).expect("scenario drains");
                    soc.snapshot().expect("quiesced and forkable")
                };
                let (a, b) = (capture(30_000), capture(120_000));
                let blob = a.to_blob(text.clone()).encode();
                Seed {
                    streams: [a.state_bytes(), b.state_bytes()],
                    blob,
                    text,
                }
            })
            .collect()
    })
}

fn skeleton(text: &str) -> Soc {
    ScenarioSpec::parse(text)
        .expect("scenario parses")
        .build()
        .0
}

/// One mutation of `base` (or of `other`, for splices) drawn from
/// `kind` and the free words `a`, `b`.
fn mutate(base: &[u8], other: &[u8], kind: u8, a: u64, b: u64) -> Vec<u8> {
    let at = |w: u64, len: usize| (w % (len as u64 + 1)) as usize;
    let mut out = base.to_vec();
    match kind {
        // Random bytes.
        0 => {
            let n = (a % 96) as usize;
            let mut x = b | 1;
            out = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
        }
        // Up to three bit flips.
        1 => {
            if !out.is_empty() {
                for i in 0..=(b % 3) {
                    let pos = (a.rotate_left(21 * i as u32) % out.len() as u64) as usize;
                    out[pos] ^= 1 << ((b >> (8 * i)) % 8);
                }
            }
        }
        // Truncation.
        2 => out.truncate(at(a, base.len())),
        // Splice: a prefix of one stream and a suffix of another.
        3 => {
            let cut = at(a, base.len());
            let from = at(b, other.len());
            out.truncate(cut);
            out.extend_from_slice(&other[from..]);
        }
        // A forged 64-bit word (a declared length, count or stamp).
        _ => {
            if out.len() >= 8 {
                let pos = (a % (out.len() as u64 - 7)) as usize;
                let forged = match b % 4 {
                    0 => u64::MAX,
                    1 => 1 << 40,
                    2 => out.len() as u64,
                    _ => b >> 2,
                };
                out[pos..pos + 8].copy_from_slice(&forged.to_le_bytes());
            }
        }
    }
    out
}

/// Loads `stream` into a fresh skeleton of `text` and checks the
/// decoder properties.
fn check_state_load(text: &str, stream: &[u8]) -> Result<(), TestCaseError> {
    let mut soc = skeleton(text);
    let (loaded, bytes) = allocated_by(|| soc.load_state(stream));
    prop_assert!(
        bytes <= alloc_bound(stream.len()),
        "loading {} bytes allocated {bytes}",
        stream.len()
    );
    if loaded.is_ok() {
        prop_assert!(
            soc.typed_state().bytes == stream,
            "a mutated stream loaded but re-records differently"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn state_decoder_survives_mutated_streams(
        sel in 0usize..CORPUS.len(),
        other_sel in 0usize..CORPUS.len(),
        which in 0usize..2,
        kind in 0u8..5,
        a in 0u64..=u64::MAX,
        b in 0u64..=u64::MAX,
    ) {
        let seeds = corpus();
        let base = &seeds[sel].streams[which];
        let other = &seeds[other_sel].streams[1 - which];
        let stream = mutate(base, other, kind, a, b);
        check_state_load(&seeds[sel].text, &stream)?;
    }

    #[test]
    fn blob_decoder_survives_mutated_blobs(
        sel in 0usize..CORPUS.len(),
        other_sel in 0usize..CORPUS.len(),
        kind in 0u8..5,
        reseal in prop::bool::ANY,
        a in 0u64..=u64::MAX,
        b in 0u64..=u64::MAX,
    ) {
        let seeds = corpus();
        let mut enc = mutate(&seeds[sel].blob, &seeds[other_sel].blob, kind, a, b);
        // Re-sealing the trailer lets the mutation past the checksum, so
        // the header and length fields themselves are exercised.
        if reseal && enc.len() >= 16 {
            let n = enc.len() - 8;
            let sum = fgqos::sim::SnapshotBlob::content_key(&enc[..n]);
            let sum = u64::from_str_radix(&sum, 16).expect("hex key");
            enc[n..].copy_from_slice(&sum.to_le_bytes());
        }
        let (decoded, bytes) = allocated_by(|| SnapshotBlob::decode(&enc));
        prop_assert!(
            bytes <= alloc_bound(enc.len()),
            "decoding a {}-byte blob allocated {bytes}",
            enc.len()
        );
        if let Ok(blob) = decoded {
            prop_assert!(blob.encode() == enc, "a decoded blob re-encodes differently");
            // Whatever the blob carries, loading it is an error or a
            // snapshot whose stream is the blob's.
            if let Ok(snap) = SocSnapshot::load_into(skeleton(&seeds[sel].text), &blob) {
                prop_assert!(snap.state_bytes() == blob.state);
            }
        }
    }
}

/// Every shipped stream loads and re-records unmutated, so the mutation
/// properties above are never vacuous.
#[test]
fn corpus_streams_round_trip() {
    for seed in corpus() {
        for stream in &seed.streams {
            let mut soc = skeleton(&seed.text);
            soc.load_state(stream).expect("an unmutated stream loads");
            assert!(soc.typed_state().bytes == *stream);
        }
        let blob = SnapshotBlob::decode(&seed.blob).expect("an unmutated blob decodes");
        SocSnapshot::load_into(skeleton(&seed.text), &blob).expect("an unmutated blob loads");
    }
}

/// A forged length on the stream's first section tag and on the
/// transaction arena's slot count fails as truncated input without an
/// allocation sized by the forged value.
#[test]
fn forged_lengths_fail_before_allocating() {
    let arena_tag: Vec<u8> = [&5u64.to_le_bytes()[..], b"arena"].concat();
    for seed in corpus() {
        let stream = &seed.streams[0];
        let arena = stream
            .windows(arena_tag.len())
            .rposition(|w| w == arena_tag.as_slice())
            .expect("the stream ends with the arena section");
        // Tag length at 0; arena live count, then slot count, after its tag.
        for pos in [0, arena + arena_tag.len() + 8] {
            for forged in [u64::MAX, 1 << 40, stream.len() as u64] {
                let mut bad = stream.clone();
                bad[pos..pos + 8].copy_from_slice(&forged.to_le_bytes());
                let mut soc = skeleton(&seed.text);
                let (loaded, bytes) = allocated_by(|| soc.load_state(&bad));
                assert!(
                    matches!(loaded, Err(SnapDecodeError::Truncated { .. })),
                    "forged length {forged} at byte {pos}: {loaded:?}"
                );
                assert!(
                    bytes <= alloc_bound(bad.len()),
                    "forged length {forged} at byte {pos} allocated {bytes}"
                );
            }
        }
    }
}
