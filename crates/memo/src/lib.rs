//! Content-addressed on-disk result store for deterministic runs.
//!
//! Every byte of a run's output is deterministic given (workload spec,
//! machine config, fault plan, seed) — the byte-identity contract the
//! parallelism and fast-forward layers already enforce. That makes exact
//! memoization sound: a cache entry keyed by a canonical fingerprint of the
//! run's inputs reproduces the run byte-for-byte, so a warm re-run costs
//! zero simulation.
//!
//! The store is a flat directory of `<digest>.json` entries:
//!
//! - **Keys** are built with [`Fingerprint`]: an insertion-ordered JSON
//!   document of the execution-*relevant* inputs, automatically salted with
//!   the sa-stats schema version and this crate's version so a schema or
//!   code change invalidates every old entry. Execution-irrelevant knobs
//!   (`--jobs`, `--fast-forward`, progress sinks) must stay out of the key
//!   — they do not change output bytes. Large index/value arrays enter the
//!   key as SHA-256 digests ([`hash_u64s`]/[`hash_f64s`]) rather than
//!   inline, keeping key documents small enough to store alongside the
//!   payload for auditability.
//! - **Writes** go to a process-unique temp file then `rename` into place,
//!   so concurrent sweep processes racing on one key are safe: rename is
//!   atomic within a directory and the losers simply overwrite with an
//!   identical entry.
//! - **Reads** validate everything (entry schema/version, key digest,
//!   payload checksum); a truncated, bit-flipped, or stale entry is deleted
//!   and reported as a miss so the caller recomputes — corruption can never
//!   crash a run or poison an output.
//! - **Eviction** is a size-bounded LRU ([`ResultCache::gc`]): hits touch
//!   the entry's mtime, gc removes oldest-first until the store fits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

use sa_telemetry::{Json, STATS_SCHEMA_VERSION};

/// `schema` field of every on-disk entry.
pub const ENTRY_SCHEMA: &str = "sa-cache-entry";

/// Version of the on-disk entry layout; bumping it invalidates all entries.
pub const ENTRY_VERSION: u64 = 1;

/// Environment variable naming the cache directory (enables caching when
/// set, even without a `--cache` flag).
pub const ENV_DIR: &str = "SA_CACHE_DIR";

/// Directory used by a bare `--cache` when [`ENV_DIR`] is unset.
pub const DEFAULT_DIR: &str = ".sa-cache";

// ---------------------------------------------------------------------------
// SHA-256 (hand-rolled: the build environment has no registry access, and a
// content-addressed store needs a real collision-resistant digest, not fxhash)
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 state.
struct Sha256 {
    h: [u32; 8],
    block: [u8; 64],
    block_len: usize,
    total_len: u64,
}

impl Sha256 {
    fn new() -> Sha256 {
        Sha256 {
            h: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            block: [0; 64],
            block_len: 0,
            total_len: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total_len += data.len() as u64;
        while !data.is_empty() {
            let take = (64 - self.block_len).min(data.len());
            self.block[self.block_len..self.block_len + take].copy_from_slice(&data[..take]);
            self.block_len += take;
            data = &data[take..];
            if self.block_len == 64 {
                self.compress();
                self.block_len = 0;
            }
        }
    }

    fn compress(&mut self) {
        let mut w = [0u32; 64];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes([
                self.block[4 * i],
                self.block[4 * i + 1],
                self.block[4 * i + 2],
                self.block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (i, v) in [a, b, c, d, e, f, g, h].into_iter().enumerate() {
            self.h[i] = self.h[i].wrapping_add(v);
        }
    }

    fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total_len * 8;
        self.update(&[0x80]);
        while self.block_len != 56 {
            self.update(&[0]);
        }
        // update() would count the length bytes into total_len; write directly.
        self.block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.compress();
        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// SHA-256 digest of `bytes` as a lowercase hex string.
pub fn sha256_hex(bytes: &[u8]) -> String {
    let mut s = Sha256::new();
    s.update(bytes);
    let digest = s.finish();
    let mut hex = String::with_capacity(64);
    for b in digest {
        hex.push_str(&format!("{b:02x}"));
    }
    hex
}

/// Digest of a `u64` slice (little-endian words) — for folding large index
/// arrays into a fingerprint without embedding them.
pub fn hash_u64s(values: &[u64]) -> String {
    let mut s = Sha256::new();
    for v in values {
        s.update(&v.to_le_bytes());
    }
    let digest = s.finish();
    let mut hex = String::with_capacity(64);
    for b in digest {
        hex.push_str(&format!("{b:02x}"));
    }
    hex
}

/// Digest of an `f64` slice (bit patterns, little-endian) — exact, no
/// rounding: two value arrays hash equal iff they are bitwise equal.
pub fn hash_f64s(values: &[f64]) -> String {
    let mut s = Sha256::new();
    for v in values {
        s.update(&v.to_bits().to_le_bytes());
    }
    let digest = s.finish();
    let mut hex = String::with_capacity(64);
    for b in digest {
        hex.push_str(&format!("{b:02x}"));
    }
    hex
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// Canonical cache key: an insertion-ordered JSON document of every
/// execution-relevant input, salted with schema and crate versions.
///
/// Build one field at a time in a fixed order; the digest is the SHA-256 of
/// the compact JSON encoding, so any difference in any field — or in the
/// salt — yields a different entry.
///
/// ```
/// use sa_memo::Fingerprint;
/// use sa_telemetry::Json;
///
/// let a = Fingerprint::new("session").u64("seed", 1).digest();
/// let b = Fingerprint::new("session").u64("seed", 2).digest();
/// assert_ne!(a, b);
/// ```
#[derive(Clone, Debug)]
pub struct Fingerprint {
    key: Json,
}

impl Fingerprint {
    /// A fingerprint for a run of the given `kind` (e.g. `"session"`,
    /// `"sweep-point"`, `"canonical"`), pre-salted for invalidation.
    pub fn new(kind: &str) -> Fingerprint {
        let mut key = Json::obj();
        key.push("schema", Json::Str("sa-cache-key".to_string()));
        key.push("stats_schema_version", Json::UInt(STATS_SCHEMA_VERSION));
        key.push(
            "crate_version",
            Json::Str(env!("CARGO_PKG_VERSION").to_string()),
        );
        key.push("kind", Json::Str(kind.to_string()));
        Fingerprint { key }
    }

    /// A fingerprint whose entire content is one canonical JSON payload —
    /// the spec-first key shape: `Fingerprint::for_payload("session",
    /// spec.canonical_json())` makes the serialized job description *be*
    /// the cache key (plus the usual schema/version salts), so any two
    /// routes that produce the same canonical spec (builder chain, spec
    /// file, HTTP job body) hit the same entry by construction.
    pub fn for_payload(kind: &str, payload: Json) -> Fingerprint {
        Fingerprint::new(kind).field("spec", payload)
    }

    /// Append an arbitrary JSON field.
    pub fn field(mut self, name: &str, value: Json) -> Fingerprint {
        self.key.push(name, value);
        self
    }

    /// Append a string field.
    pub fn str(self, name: &str, value: &str) -> Fingerprint {
        self.field(name, Json::Str(value.to_string()))
    }

    /// Append an unsigned integer field.
    pub fn u64(self, name: &str, value: u64) -> Fingerprint {
        self.field(name, Json::UInt(value))
    }

    /// Append a float field (bit-exact through the JSON writer).
    pub fn f64(self, name: &str, value: f64) -> Fingerprint {
        self.field(name, Json::Num(value))
    }

    /// Append a boolean field.
    pub fn bool(self, name: &str, value: bool) -> Fingerprint {
        self.field(name, Json::Bool(value))
    }

    /// The key document (stored verbatim inside each entry for audit).
    pub fn key_json(&self) -> &Json {
        &self.key
    }

    /// Content address: SHA-256 of the compact key encoding.
    pub fn digest(&self) -> String {
        sha256_hex(self.key.to_string_compact().as_bytes())
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// One entry as reported by [`ResultCache::ls`].
#[derive(Clone, Debug)]
pub struct EntryInfo {
    /// Content address (file stem).
    pub digest: String,
    /// Entry size on disk in bytes.
    pub bytes: u64,
    /// Last-used time (mtime; hits touch it).
    pub modified: SystemTime,
}

/// Outcome of a [`ResultCache::gc`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries deleted (oldest-first).
    pub removed: usize,
    /// Entries kept.
    pub kept: usize,
    /// Bytes freed.
    pub bytes_freed: u64,
    /// Bytes still stored.
    pub bytes_kept: u64,
}

/// A content-addressed result store rooted at one directory.
///
/// Cheap to share: hit/miss/store counts are atomics, all file operations
/// are self-contained, and concurrent processes on the same directory are
/// safe by construction (atomic rename, validate-on-read).
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl ResultCache {
    /// Open (creating if needed) the store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        })
    }

    /// Open the store named by `SA_CACHE_DIR`, if set and creatable.
    pub fn from_env() -> Option<ResultCache> {
        let dir = std::env::var(ENV_DIR).ok().filter(|d| !d.is_empty())?;
        ResultCache::open(dir).ok()
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Hits observed through this handle.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses observed through this handle.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Stores performed through this handle.
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }

    fn entry_path(&self, digest: &str) -> PathBuf {
        self.dir.join(format!("{digest}.json"))
    }

    /// Look up `fp`, returning the stored payload on a valid hit.
    ///
    /// Any defect — unreadable file, truncation, bad JSON, wrong entry
    /// schema/version, digest mismatch, payload checksum mismatch — deletes
    /// the entry and returns `None` so the caller recomputes. A hit touches
    /// the entry's mtime (the LRU clock for [`gc`](ResultCache::gc)).
    pub fn lookup(&self, fp: &Fingerprint) -> Option<Json> {
        let digest = fp.digest();
        let path = self.entry_path(&digest);
        let mut text = String::new();
        match File::open(&path).and_then(|mut f| f.read_to_string(&mut text)) {
            Ok(_) => {}
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        match validate_entry(&text, &digest) {
            Some(payload) => {
                // Touch mtime so gc sees this entry as recently used. Best
                // effort: a read-only store still serves hits.
                if let Ok(f) = File::options().append(true).open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                let _ = fs::remove_file(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store `payload` under `fp` (atomic: temp file + rename).
    ///
    /// Failures are returned, not panicked — a full disk degrades to "no
    /// cache", never to a broken run.
    pub fn store(&self, fp: &Fingerprint, payload: &Json) -> io::Result<()> {
        let digest = fp.digest();
        let payload_text = payload.to_string_compact();
        let mut entry = Json::obj();
        entry.push("schema", Json::Str(ENTRY_SCHEMA.to_string()));
        entry.push("version", Json::UInt(ENTRY_VERSION));
        entry.push("digest", Json::Str(digest.clone()));
        entry.push(
            "payload_sha256",
            Json::Str(sha256_hex(payload_text.as_bytes())),
        );
        entry.push("key", fp.key_json().clone());
        entry.push("payload", payload.clone());
        // Unique per process AND per call: two threads of one process may
        // race on the same key, so the pid alone is not enough.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            "{digest}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(entry.to_string_compact().as_bytes())?;
            f.write_all(b"\n")?;
        }
        let result = fs::rename(&tmp, self.entry_path(&digest));
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result?;
        self.stores.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// All entries, least-recently-used first (ties broken by digest so the
    /// listing is stable). Stray temp files are skipped.
    pub fn ls(&self) -> io::Result<Vec<EntryInfo>> {
        let mut entries = Vec::new();
        for item in fs::read_dir(&self.dir)? {
            let item = item?;
            let name = item.file_name();
            let name = name.to_string_lossy();
            let Some(digest) = name.strip_suffix(".json") else {
                continue;
            };
            let meta = match item.metadata() {
                Ok(m) => m,
                Err(_) => continue, // raced with a concurrent gc/clear
            };
            entries.push(EntryInfo {
                digest: digest.to_string(),
                bytes: meta.len(),
                modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        entries.sort_by(|a, b| a.modified.cmp(&b.modified).then(a.digest.cmp(&b.digest)));
        Ok(entries)
    }

    /// Total entry count and bytes on disk.
    pub fn usage(&self) -> io::Result<(usize, u64)> {
        let entries = self.ls()?;
        let bytes = entries.iter().map(|e| e.bytes).sum();
        Ok((entries.len(), bytes))
    }

    /// Delete least-recently-used entries until the store holds at most
    /// `max_bytes`.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let entries = self.ls()?;
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut report = GcReport {
            kept: entries.len(),
            bytes_kept: total,
            ..GcReport::default()
        };
        for entry in &entries {
            if total <= max_bytes {
                break;
            }
            match fs::remove_file(self.entry_path(&entry.digest)) {
                Ok(()) => {
                    total -= entry.bytes;
                    report.removed += 1;
                    report.kept -= 1;
                    report.bytes_freed += entry.bytes;
                    report.bytes_kept -= entry.bytes;
                }
                Err(_) => continue, // raced with another gc; recount below
            }
        }
        Ok(report)
    }

    /// Delete every entry, returning how many were removed.
    pub fn clear(&self) -> io::Result<usize> {
        let entries = self.ls()?;
        let mut removed = 0;
        for entry in &entries {
            if fs::remove_file(self.entry_path(&entry.digest)).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Parse and validate one entry's text; `Some(payload)` only if everything
/// checks out.
fn validate_entry(text: &str, want_digest: &str) -> Option<Json> {
    let entry = Json::parse(text).ok()?;
    if entry.get("schema").and_then(Json::as_str) != Some(ENTRY_SCHEMA) {
        return None;
    }
    if entry.get("version").and_then(Json::as_u64) != Some(ENTRY_VERSION) {
        return None;
    }
    if entry.get("digest").and_then(Json::as_str) != Some(want_digest) {
        return None;
    }
    let payload = entry.get("payload")?;
    let checksum = entry.get("payload_sha256").and_then(Json::as_str)?;
    if sha256_hex(payload.to_string_compact().as_bytes()) != checksum {
        return None;
    }
    Some(payload.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sa-memo-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(n: u64) -> Json {
        let mut p = Json::obj();
        p.push("cycles", Json::UInt(n));
        p.push("gbps", Json::Num(38.4));
        p
    }

    #[test]
    fn sha256_matches_known_vectors() {
        // FIPS 180-2 test vectors.
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Multi-block message (one million 'a' would be slow in debug; use
        // 200 bytes to cross several 64-byte blocks instead).
        let long = vec![b'a'; 200];
        assert_eq!(sha256_hex(&long), {
            let mut s = Sha256::new();
            for chunk in long.chunks(7) {
                s.update(chunk);
            }
            let d = s.finish();
            d.iter().map(|b| format!("{b:02x}")).collect::<String>()
        });
    }

    #[test]
    fn fingerprint_digest_is_order_and_value_sensitive() {
        let base = Fingerprint::new("t").u64("a", 1).u64("b", 2);
        assert_eq!(
            base.digest(),
            Fingerprint::new("t").u64("a", 1).u64("b", 2).digest()
        );
        assert_ne!(
            base.digest(),
            Fingerprint::new("t").u64("b", 2).u64("a", 1).digest()
        );
        assert_ne!(
            base.digest(),
            Fingerprint::new("t").u64("a", 1).u64("b", 3).digest()
        );
        assert_ne!(
            base.digest(),
            Fingerprint::new("u").u64("a", 1).u64("b", 2).digest()
        );
    }

    #[test]
    fn array_hashes_are_exact() {
        assert_eq!(hash_u64s(&[1, 2, 3]), hash_u64s(&[1, 2, 3]));
        assert_ne!(hash_u64s(&[1, 2, 3]), hash_u64s(&[1, 2, 4]));
        assert_ne!(hash_u64s(&[1, 2]), hash_u64s(&[1, 2, 0]));
        assert_eq!(hash_f64s(&[0.1]), hash_f64s(&[0.1]));
        assert_ne!(hash_f64s(&[0.1]), hash_f64s(&[0.1 + f64::EPSILON]));
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = temp_dir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let fp = Fingerprint::new("t").u64("seed", 7);
        assert_eq!(cache.lookup(&fp), None);
        cache.store(&fp, &payload(42)).unwrap();
        let hit = cache.lookup(&fp).expect("stored entry should hit");
        assert_eq!(hit.to_string_compact(), payload(42).to_string_compact());
        assert_eq!((cache.hits(), cache.misses(), cache.stores()), (1, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_keys_do_not_collide() {
        let dir = temp_dir("keys");
        let cache = ResultCache::open(&dir).unwrap();
        let a = Fingerprint::new("t").u64("seed", 1);
        let b = Fingerprint::new("t").u64("seed", 2);
        cache.store(&a, &payload(1)).unwrap();
        assert_eq!(cache.lookup(&b), None);
        assert_eq!(cache.lookup(&a).unwrap(), payload(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_evicted_and_recomputed() {
        let dir = temp_dir("truncate");
        let cache = ResultCache::open(&dir).unwrap();
        let fp = Fingerprint::new("t").u64("seed", 9);
        cache.store(&fp, &payload(9)).unwrap();
        let path = dir.join(format!("{}.json", fp.digest()));
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(cache.lookup(&fp), None, "truncated entry must miss");
        assert!(!path.exists(), "corrupt entry must be evicted");
        // Recompute-and-store produces an identical entry again.
        cache.store(&fp, &payload(9)).unwrap();
        assert_eq!(fs::read(&path).unwrap(), full);
        assert_eq!(cache.lookup(&fp).unwrap(), payload(9));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflipped_payload_is_evicted() {
        let dir = temp_dir("bitflip");
        let cache = ResultCache::open(&dir).unwrap();
        let fp = Fingerprint::new("t").u64("seed", 11);
        cache.store(&fp, &payload(11)).unwrap();
        let path = dir.join(format!("{}.json", fp.digest()));
        let mut bytes = fs::read(&path).unwrap();
        // Flip a digit inside the payload's cycles value: the entry still
        // parses, but the checksum catches it.
        let at = String::from_utf8(bytes.clone())
            .unwrap()
            .find("\"cycles\":11")
            .unwrap()
            + "\"cycles\":1".len();
        bytes[at] = b'2';
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.lookup(&fp), None, "bit-flipped entry must miss");
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_writers_converge_to_one_valid_entry() {
        let dir = temp_dir("race");
        let cache = ResultCache::open(&dir).unwrap();
        let fp = Fingerprint::new("t").u64("seed", 13);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mine = ResultCache::open(&dir).unwrap();
                    let fp = Fingerprint::new("t").u64("seed", 13);
                    for _ in 0..50 {
                        mine.store(&fp, &payload(13)).unwrap();
                        if let Some(p) = mine.lookup(&fp) {
                            assert_eq!(p, payload(13));
                        }
                    }
                });
            }
        });
        // Exactly one file, valid, with the agreed payload.
        let entries = cache.ls().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(cache.lookup(&fp).unwrap(), payload(13));
        assert!(
            fs::read_dir(&dir).unwrap().count() == 1,
            "no stray temp files may survive"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_lru_until_under_bound() {
        let dir = temp_dir("gc");
        let cache = ResultCache::open(&dir).unwrap();
        let fps: Vec<Fingerprint> = (0..4)
            .map(|i| Fingerprint::new("t").u64("seed", i))
            .collect();
        for (i, fp) in fps.iter().enumerate() {
            cache.store(fp, &payload(i as u64)).unwrap();
            // Distinct mtimes even on coarse filesystem clocks.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // Touch the oldest entry so it becomes the newest.
        assert!(cache.lookup(&fps[0]).is_some());
        let (count, total) = cache.usage().unwrap();
        assert_eq!(count, 4);
        let per_entry = total / 4;
        let report = cache.gc(2 * per_entry + 1).unwrap();
        assert_eq!(report.removed, 2);
        assert_eq!(report.kept, 2);
        assert!(report.bytes_kept <= 2 * per_entry + 1);
        // Survivors: the touched entry 0 and the newest entry 3.
        assert!(cache.lookup(&fps[0]).is_some());
        assert!(cache.lookup(&fps[3]).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_empties_the_store() {
        let dir = temp_dir("clear");
        let cache = ResultCache::open(&dir).unwrap();
        for i in 0..3 {
            cache
                .store(&Fingerprint::new("t").u64("seed", i), &payload(i))
                .unwrap();
        }
        assert_eq!(cache.clear().unwrap(), 3);
        assert_eq!(cache.usage().unwrap(), (0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_salt_invalidates() {
        // A future schema bump must change every digest; simulate by
        // checking the salt fields are present in the key doc.
        let fp = Fingerprint::new("t");
        let key = fp.key_json();
        assert_eq!(
            key.get("stats_schema_version").and_then(Json::as_u64),
            Some(STATS_SCHEMA_VERSION)
        );
        assert!(key.get("crate_version").and_then(Json::as_str).is_some());
    }
}
