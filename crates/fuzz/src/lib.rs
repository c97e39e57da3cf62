//! Deterministic structure-aware fuzzing for the SXSI untrusted-input
//! surfaces.
//!
//! Four inputs reach this codebase from outside a trust boundary:
//!
//! 1. **XML documents** fed to `sxsi build` (the parser plus the tree
//!    builder behind it),
//! 2. **`.sxsi` container bytes** fed to `sxsi query`/`info`/`serve`
//!    (the sectioned reader plus every component `ReadFrom`),
//! 3. **protocol frames** fed to a running `sxsi serve` daemon (length
//!    decoding plus command dispatch), and
//! 4. **`.sxsic` manifest bytes** fed to `sxsi query` /
//!    `serve` (the collection manifest decoder plus its invariant
//!    checks).
//!
//! Each driver in this crate hammers one of those surfaces with
//! structure-aware inputs — grown from grammars and mutated from valid
//! seeds rather than purely random bytes, so the interesting deep paths
//! are actually reached — and asserts the only contract that matters at
//! a trust boundary: *a structured error or a successful parse, never a
//! panic*.
//!
//! Everything is deterministic: a run is fully described by `(driver,
//! seed, iterations)`, so any failure report can be replayed exactly.
//! The RNG is the same xorshift construction as the offline `proptest`
//! shim; no fuzzing framework or instrumentation is required.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use sxsi::{ReadFrom, SxsiIndex, Verify, VerifyDepth, WriteInto};
use sxsi_collection::{DocEntry, Manifest};
use sxsi_engine::server::protocol::{
    read_frame, unescape_query, ErrorCode, Response, MAX_REQUEST_FRAME,
};
use sxsi_engine::server::{ServeOptions, ServedIndex, Server};

/// Deterministic xorshift64* generator (the same construction as the
/// offline proptest shim's `TestRng`): tiny, seedable and plenty for
/// mutation schedules.
#[derive(Debug, Clone)]
pub struct FuzzRng(u64);

impl FuzzRng {
    /// Creates a generator from a seed; seed 0 is remapped (xorshift has
    /// a fixed point at zero).
    pub fn new(seed: u64) -> Self {
        Self(if seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..bound` (`bound` 0 yields 0).
    pub fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as usize
        }
    }

    /// One random byte.
    pub fn byte(&mut self) -> u8 {
        (self.next_u64() >> 32) as u8
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    /// Uniformly picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

// ---------------------------------------------------------------------
// Input generation
// ---------------------------------------------------------------------

const TAG_NAMES: &[&str] = &["a", "bb", "item", "x-y", "ns:t", "deep", "t0"];
const ATTR_NAMES: &[&str] = &["id", "key", "lang", "v"];
const TEXT_BITS: &[&str] =
    &["", "x", "hello world", "&amp;", "&lt;tag&gt;", "&#65;", "&#x41;", "  ", "\u{e9}t\u{e9}"];

/// Grows a syntactically plausible XML document: nested elements with
/// attributes, entity-bearing text, self-closing tags, comments and the
/// occasional deliberate malformation (mismatched close tags).
pub fn generate_xml(rng: &mut FuzzRng) -> Vec<u8> {
    let mut out = Vec::new();
    if rng.chance(30) {
        out.extend_from_slice(b"<?xml version=\"1.0\"?>");
    }
    let mut stack: Vec<&str> = Vec::new();
    let target = 1 + rng.below(40);
    let mut opened = 0usize;
    while opened < target || !stack.is_empty() {
        let can_open = opened < target && stack.len() < 12;
        if can_open && (stack.is_empty() || rng.chance(55)) {
            let name = *rng.pick(TAG_NAMES);
            out.push(b'<');
            out.extend_from_slice(name.as_bytes());
            for _ in 0..rng.below(3) {
                let attr = *rng.pick(ATTR_NAMES);
                let value = *rng.pick(TEXT_BITS);
                let quote = if rng.chance(50) { b'"' } else { b'\'' };
                out.push(b' ');
                out.extend_from_slice(attr.as_bytes());
                out.push(b'=');
                out.push(quote);
                out.extend_from_slice(value.as_bytes());
                out.push(quote);
            }
            opened += 1;
            if rng.chance(20) {
                out.extend_from_slice(b"/>");
            } else {
                out.push(b'>');
                stack.push(name);
            }
        } else if let Some(name) = stack.pop() {
            if rng.chance(35) {
                out.extend_from_slice(rng.pick(TEXT_BITS).as_bytes());
            }
            if rng.chance(10) {
                out.extend_from_slice(b"<!-- c -->");
            }
            // ~3% of closes are deliberately wrong: the parser must reject
            // them with a structured error, never panic.
            let close: &&str = if rng.chance(3) { rng.pick(TAG_NAMES) } else { &name };
            out.extend_from_slice(b"</");
            out.extend_from_slice(close.as_bytes());
            out.push(b'>');
        }
    }
    if rng.chance(15) {
        mutate_bytes(rng, &mut out);
    }
    out
}

/// Applies 1–8 random byte-level mutations in place: flips, inserts,
/// deletions, truncations, duplicated spans and magic-byte splices.
pub fn mutate_bytes(rng: &mut FuzzRng, data: &mut Vec<u8>) {
    const MAGIC_SPLICES: &[&[u8]] = &[
        b"SXSIIDX\0",
        &[0xff; 8],
        &[0x00; 8],
        &u64::MAX.to_le_bytes(),
        &(1u64 << 62).to_le_bytes(),
        b"<![CDATA[",
        b"</",
    ];
    for _ in 0..1 + rng.below(8) {
        if data.is_empty() {
            data.push(rng.byte());
            continue;
        }
        match rng.below(6) {
            0 => {
                let i = rng.below(data.len());
                data[i] ^= 1 << rng.below(8);
            }
            1 => {
                let i = rng.below(data.len());
                data.insert(i, rng.byte());
            }
            2 => {
                let i = rng.below(data.len());
                data.remove(i);
            }
            3 => data.truncate(rng.below(data.len())),
            4 => {
                let start = rng.below(data.len());
                let len = 1 + rng.below((data.len() - start).min(16));
                let span: Vec<u8> = data[start..start + len].to_vec();
                let at = rng.below(data.len());
                data.splice(at..at, span);
            }
            _ => {
                let splice = *rng.pick(MAGIC_SPLICES);
                let i = rng.below(data.len());
                let end = (i + splice.len()).min(data.len());
                data.splice(i..end, splice.iter().copied());
            }
        }
    }
}

/// A tiny but representative document: nested elements, attributes,
/// repeated tags, entities and mixed content — every container section
/// ends up non-trivial.
const SEED_XML: &[u8] = br#"<lib><book id="b1" lang="en"><title>a &amp; b</title>
<author><last>Ito</last></author></book><book id="b2"><title>xy</title></book>
<note/></lib>"#;

fn seed_index() -> &'static SxsiIndex {
    static INDEX: OnceLock<SxsiIndex> = OnceLock::new();
    INDEX.get_or_init(|| {
        SxsiIndex::build_from_xml(SEED_XML).expect("the built-in seed document must parse")
    })
}

fn seed_container_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| seed_index().to_bytes())
}

fn seed_server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        let index = Arc::new(
            SxsiIndex::build_from_xml(SEED_XML).expect("the built-in seed document must parse"),
        );
        let options = ServeOptions { threads: 1, ..ServeOptions::default() };
        Server::new_served(vec![("fuzz".to_string(), ServedIndex::Single(index))], options)
            .expect("one uniquely named index must be accepted")
    })
}

// ---------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------

/// One fuzz case for the XML surface: parse (and on success, index) a
/// generated document.  Returns whether the input was accepted.
pub fn drive_xml(data: &[u8]) -> bool {
    match SxsiIndex::build_from_xml(data) {
        Ok(index) => {
            // Whatever the parser accepts must also satisfy the deep
            // structural invariants — an index that builds inconsistent
            // would corrupt silently on disk.
            let report = index.verify(VerifyDepth::Deep);
            assert!(report.is_ok(), "accepted input builds an inconsistent index: {report}");
            true
        }
        Err(_) => false,
    }
}

/// Builds one XML fuzz input: usually grammar-grown, sometimes a
/// mutation of the seed document.
pub fn xml_input(rng: &mut FuzzRng) -> Vec<u8> {
    if rng.chance(25) {
        let mut data = SEED_XML.to_vec();
        mutate_bytes(rng, &mut data);
        data
    } else {
        generate_xml(rng)
    }
}

/// One fuzz case for the container surface: scan plus full load of the
/// given bytes.  Returns whether the loader accepted the input.
pub fn drive_container(data: &[u8]) -> bool {
    // The raw section scanner must survive anything (it reports damage
    // instead of erroring out early).
    let _ = sxsi::scan_container(&mut &data[..]);
    match SxsiIndex::from_bytes(data) {
        Ok(index) => {
            let report = index.verify(VerifyDepth::Deep);
            // A mutated container that still loads is fine (the mutation
            // may have missed every section), but if the checksums let it
            // through the structures must be intact.
            assert!(report.is_ok(), "loader accepted a structurally broken container: {report}");
            true
        }
        Err(_) => false,
    }
}

/// Builds one container fuzz input by mutating valid index bytes (pure
/// random bytes would die at the magic check and test nothing).
pub fn container_input(rng: &mut FuzzRng) -> Vec<u8> {
    let mut data = seed_container_bytes().to_vec();
    mutate_bytes(rng, &mut data);
    data
}

/// A small but representative manifest: three documents with distinct
/// names, segments and counts, so every decoder field and invariant check
/// sees non-degenerate data.
fn seed_manifest_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        valid_manifest(3, 0).to_bytes()
    })
}

/// A structurally valid manifest with `num_docs` documents; `salt`
/// varies names and counts so grown inputs differ.
fn valid_manifest(num_docs: u64, salt: u64) -> Manifest {
    let docs = (0..num_docs)
        .map(|id| DocEntry {
            id,
            name: format!("doc-{salt}-{id}"),
            segment: format!("col{salt}.d{id}.sxsi"),
            checksum: 0x1234_5678_9abc_def0 ^ (salt << 8) ^ id,
            num_nodes: 10 + id + (salt % 7),
            num_elements: 6 + id,
            num_texts: 4 + (salt % 3),
        })
        .collect::<Vec<_>>();
    Manifest {
        total_elements: docs.iter().map(|d| d.num_elements).sum(),
        total_texts: docs.iter().map(|d| d.num_texts).sum(),
        docs,
    }
}

/// One fuzz case for the collection-manifest surface: decode the bytes
/// and, on acceptance, require the decoded manifest to be verify-clean
/// and to round-trip byte-identically.  Returns whether the decoder
/// accepted the input.
pub fn drive_manifest(data: &[u8]) -> bool {
    match Manifest::from_bytes(data) {
        Ok(manifest) => {
            // `from_bytes` promises an internally consistent value: the
            // structured verifier must agree, or corrupt manifests would
            // slip through to the segment loader.
            let report = manifest.verify(VerifyDepth::Deep);
            assert!(report.is_ok(), "decoder accepted an inconsistent manifest: {report}");
            let reencoded = manifest.to_bytes();
            let reparsed = Manifest::from_bytes(&reencoded)
                .expect("re-encoded manifest must decode");
            assert_eq!(reparsed, manifest, "manifest round-trip changed the value");
            true
        }
        Err(_) => false,
    }
}

/// Builds one manifest fuzz input: usually a mutation of valid manifest
/// bytes (pure random bytes would die at the magic check and test
/// nothing), sometimes a freshly grown valid manifest so the accept
/// path — deep verify plus byte-exact round-trip — runs too.
pub fn manifest_input(rng: &mut FuzzRng) -> Vec<u8> {
    if rng.chance(20) {
        let docs = rng.below(6) as u64;
        let salt = rng.next_u64() % 1024;
        return valid_manifest(docs, salt).to_bytes();
    }
    let mut data = if rng.chance(50) {
        seed_manifest_bytes().to_vec()
    } else {
        valid_manifest(1 + rng.below(4) as u64, rng.next_u64() % 1024).to_bytes()
    };
    mutate_bytes(rng, &mut data);
    data
}

const COMMAND_BITS: &[&str] = &[
    "hello 1",
    "hello 99",
    "ping",
    "stats",
    "info",
    "query index=fuzz output=count",
    "query output=nodes limit=2 offset=1",
    "query output=serialize",
    "query index=missing output=count",
    "query output=bogus",
    "query limit=none",
    "query limit=18446744073709551616",
    "search index=fuzz mode=all limit=2",
    "search mode=phrase",
    "search mode=any limit=none",
    "search mode=bogus",
    "search index=missing",
    "search limit=18446744073709551616",
    "book",
    "...", // punctuation only: no indexable token bytes
    "//book",
    "//book[.//last~'Ito']",
    "count(",
    "\u{0}\u{1}\u{2}",
]; // "shutdown" is deliberately absent: it would poison the shared server.

/// Builds one protocol fuzz payload: structured command lines with
/// query bodies, then byte-level mutations.
pub fn frame_input(rng: &mut FuzzRng) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(rng.pick(COMMAND_BITS).as_bytes());
    for _ in 0..rng.below(3) {
        payload.push(b'\n');
        payload.extend_from_slice(rng.pick(COMMAND_BITS).as_bytes());
    }
    if rng.chance(40) {
        mutate_bytes(rng, &mut payload);
    }
    payload
}

/// One fuzz case for the serve-protocol surface: frame decoding, the
/// query-string escape codec and full command dispatch on a warm
/// server.  Returns whether dispatch produced an `ok` response.
pub fn drive_frame(data: &[u8]) -> bool {
    // Length-prefix decoding over arbitrary bytes.
    let mut framed = Vec::with_capacity(data.len() + 4);
    framed.extend_from_slice(&(data.len() as u32).to_le_bytes());
    framed.extend_from_slice(data);
    let _ = read_frame(&mut &framed[..], MAX_REQUEST_FRAME);
    let _ = read_frame(&mut &data[..], MAX_REQUEST_FRAME);
    // The escape codec and response parser over arbitrary text.
    if let Ok(text) = std::str::from_utf8(data) {
        let _ = unescape_query(text);
        let _ = ErrorCode::parse(text);
    }
    let _ = Response::parse(data);
    // Full command dispatch; the response frame must itself parse.
    let (response, _close) = seed_server().handle_command(data);
    let parsed = Response::parse(&response);
    assert!(parsed.is_some(), "server rendered an unparseable response frame");
    matches!(parsed, Some(Response::Ok { .. }))
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// A reproducible fuzz failure: the driver panicked on the case
/// generated at `iteration` from `seed`.
#[derive(Debug)]
pub struct FuzzFailure {
    /// Driver name (`xml`, `container`, `frame` or `manifest`).
    pub driver: &'static str,
    /// The run's base seed.
    pub seed: u64,
    /// Zero-based iteration within the run.
    pub iteration: u64,
    /// The panic message, when it was a string payload.
    pub message: String,
    /// The input bytes that triggered the panic.
    pub input: Vec<u8>,
}

/// One fuzz driver: a name, an input builder and the function under
/// test (returns whether the input was accepted).
pub type DriverRow = (&'static str, fn(&mut FuzzRng) -> Vec<u8>, fn(&[u8]) -> bool);

/// The four drivers, one per untrusted surface.
pub const DRIVERS: &[DriverRow] = &[
    ("xml", xml_input, drive_xml),
    ("container", container_input, drive_container),
    ("frame", frame_input, drive_frame),
    ("manifest", manifest_input, drive_manifest),
];

/// Looks up a driver row by name.
pub fn driver(name: &str) -> Option<&'static DriverRow> {
    DRIVERS.iter().find(|(n, _, _)| *n == name)
}

/// Runs `iterations` cases of the named driver from `seed`, stopping at
/// the first panic.  Returns `(accepted, rejected)` counts on success.
pub fn run_driver(
    name: &'static str,
    build: fn(&mut FuzzRng) -> Vec<u8>,
    drive: fn(&[u8]) -> bool,
    seed: u64,
    iterations: u64,
) -> Result<(u64, u64), FuzzFailure> {
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for iteration in 0..iterations {
        // Each case re-derives its RNG from (seed, iteration), so a
        // failure replays without re-running the preceding cases.
        let mut rng = FuzzRng::new(seed ^ iteration.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let input = build(&mut rng);
        match catch_unwind(AssertUnwindSafe(|| drive(&input))) {
            Ok(true) => accepted += 1,
            Ok(false) => rejected += 1,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                return Err(FuzzFailure { driver: name, seed, iteration, message, input });
            }
        }
    }
    Ok((accepted, rejected))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_nonzero() {
        let mut a = FuzzRng::new(7);
        let mut b = FuzzRng::new(7);
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0);
        }
        assert_ne!(FuzzRng::new(0).next_u64(), 0);
    }

    #[test]
    fn generated_xml_is_often_parseable() {
        let mut rng = FuzzRng::new(42);
        let parsed = (0..50).filter(|_| drive_xml(&generate_xml(&mut rng))).count();
        // The grammar aims for mostly-valid documents; if this drops too
        // low the fuzzer no longer reaches the deep paths.
        assert!(parsed > 10, "only {parsed}/50 generated documents parsed");
    }

    #[test]
    fn seed_container_roundtrips() {
        assert!(drive_container(seed_container_bytes()));
    }

    #[test]
    fn seed_manifest_roundtrips_and_truncations_reject() {
        let seed = seed_manifest_bytes();
        assert!(drive_manifest(seed));
        // Every proper prefix must be rejected with a structured error.
        for len in 0..seed.len() {
            assert!(!drive_manifest(&seed[..len]), "prefix of {len} bytes accepted");
        }
    }

    #[test]
    fn frame_driver_accepts_ping() {
        assert!(drive_frame(b"ping"));
        assert!(!drive_frame(b"definitely-not-a-command"));
        assert!(!drive_frame(&[0xff, 0xfe, 0x00]));
    }

    #[test]
    fn every_driver_survives_a_smoke_run() {
        for (name, build, drive) in DRIVERS {
            let (accepted, rejected) =
                run_driver(name, *build, *drive, 0xf00d, 60).unwrap_or_else(|f| {
                    panic!(
                        "driver {} panicked at iteration {}: {}",
                        f.driver, f.iteration, f.message
                    )
                });
            assert_eq!(accepted + rejected, 60, "driver {name} lost cases");
        }
    }
}
