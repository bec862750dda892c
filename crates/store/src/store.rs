//! The content-addressed object store.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/objects/<32-hex-digest>.json   object content
//! <root>/refs/<name>.ref.json           named handle -> object digest
//! ```
//!
//! Objects are immutable and self-verifying — the file name *is* the
//! digest of the content, so a reader can always detect corruption
//! structurally. Refs are the liveness roots: [`Store::gc`] marks every
//! object reachable from a valid ref and sweeps the rest, plus any
//! `*.tmp` stragglers a crashed atomic write left behind.
//!
//! # Chaos posture
//!
//! All persistence goes through the `gdf_core::io` facade, so
//! `ChaosDisk` covers the store like every other artifact writer. Two
//! rules keep chaos survivable:
//!
//! * **Writes verify.** [`Store::put`] and [`Store::link`] read the
//!   destination back *raw* (bypassing the facade, as the fleet
//!   coordinator's `save_verified` does) and retry on mismatch, so a
//!   torn write that lied about success cannot leave a silently corrupt
//!   object or ref behind a returned `Ok`.
//! * **Destruction double-checks.** `gc()` and `get()` re-read raw
//!   before acting on an apparent corruption, so an injected *read*
//!   fault can never cause a live object to be swept or a good object to
//!   be reported corrupt.

use gdf_core::digest::Digest;
use gdf_core::json::Json;
use std::fmt;
use std::path::{Path, PathBuf};

/// How often a verifying write retries before reporting failure.
const WRITE_RETRIES: usize = 8;

/// Errors of the store. Hostile names are a named error, never a panic,
/// matching the hostile-bytes posture of the artifact decoders.
#[derive(Debug)]
pub enum StoreError {
    /// The object/ref name failed validation (path traversal, absolute
    /// path, separator, hidden-file prefix, or empty).
    BadName(String),
    /// A `link` targeted an object the store does not hold.
    MissingObject(Digest),
    /// On-disk content failed structural verification even on a raw
    /// re-read.
    Corrupt { what: String, path: PathBuf },
    /// An underlying I/O failure.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadName(name) => write!(
                f,
                "bad store name {name:?}: names are [A-Za-z0-9._-]+, no leading dot, \
                 no path separators"
            ),
            StoreError::MissingObject(d) => write!(f, "no object {d} in the store"),
            StoreError::Corrupt { what, path } => {
                write!(f, "corrupt {what} at {}", path.display())
            }
            StoreError::Io(msg) => write!(f, "store i/o: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(context: &str, path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io(format!("{context} {}: {e}", path.display()))
}

/// Validates an externally-supplied ref name. The accepted alphabet
/// (`[A-Za-z0-9._-]`, no leading dot) makes traversal syntactically
/// impossible: no separators, no `..` path steps, no absolute paths, no
/// NUL — a valid name always resolves to a child of `refs/`.
pub fn validate_name(name: &str) -> Result<(), StoreError> {
    let ok = !name.is_empty()
        && name.len() <= 200
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_');
    if ok {
        Ok(())
    } else {
        Err(StoreError::BadName(name.to_string()))
    }
}

/// Summary of one [`Store::gc`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Objects referenced by at least one valid ref (kept).
    pub live_objects: usize,
    /// Unreferenced objects deleted.
    pub swept_objects: usize,
    /// Bytes reclaimed from swept objects.
    pub swept_bytes: u64,
    /// `*.tmp` stragglers deleted (crashed atomic writes).
    pub swept_tmps: usize,
    /// Unreadable/undecodable refs renamed to `*.corrupt` — their names
    /// stop resolving, and their (unknowable) targets become sweepable
    /// next pass.
    pub quarantined_refs: usize,
}

impl fmt::Display for GcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gc: {} live, swept {} objects ({} bytes) + {} temps, quarantined {} refs",
            self.live_objects,
            self.swept_objects,
            self.swept_bytes,
            self.swept_tmps,
            self.quarantined_refs
        )
    }
}

/// Size summary of a store, as surfaced by `/metrics` and `gdf store
/// stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Object count.
    pub objects: usize,
    /// Ref count.
    pub refs: usize,
    /// Total object bytes (the `gdf_store_bytes` gauge).
    pub bytes: u64,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} objects, {} refs, {} bytes",
            self.objects, self.refs, self.bytes
        )
    }
}

/// The content-addressed store.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let store = Store { root: root.into() };
        for dir in [store.objects_dir(), store.refs_dir()] {
            std::fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, &e))?;
        }
        Ok(store)
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn objects_dir(&self) -> PathBuf {
        self.root.join("objects")
    }

    fn refs_dir(&self) -> PathBuf {
        self.root.join("refs")
    }

    fn object_path(&self, digest: &Digest) -> PathBuf {
        self.objects_dir().join(format!("{digest}.json"))
    }

    fn ref_path(&self, name: &str) -> PathBuf {
        self.refs_dir().join(format!("{name}.ref.json"))
    }

    /// Writes `want` to `path` through the facade and verifies the raw
    /// bytes landed, retrying a bounded number of times. Success means
    /// the destination *provably* holds `want`.
    fn write_verified(&self, path: &Path, want: &str) -> Result<(), StoreError> {
        let mut last: Option<std::io::Error> = None;
        for _ in 0..WRITE_RETRIES {
            match gdf_core::io::write_atomic(path, want) {
                Ok(()) => {}
                Err(e) => {
                    last = Some(e);
                    continue;
                }
            }
            // Verify raw: chaos read faults must not fail a good write.
            if std::fs::read_to_string(path).is_ok_and(|got| got == want) {
                return Ok(());
            }
        }
        Err(StoreError::Io(format!(
            "write not durable after {WRITE_RETRIES} attempts at {}{}",
            path.display(),
            last.map(|e| format!(" (last error: {e})"))
                .unwrap_or_default()
        )))
    }

    /// Stores `text`, returning its digest. Idempotent: re-putting
    /// existing content verifies (and repairs, if a past torn write lied)
    /// rather than rewriting blindly.
    pub fn put(&self, text: &str) -> Result<Digest, StoreError> {
        let digest = Digest::of_text(text);
        let path = self.object_path(&digest);
        if let Ok(existing) = std::fs::read_to_string(&path) {
            if existing == text {
                return Ok(digest);
            }
        }
        self.write_verified(&path, text)?;
        Ok(digest)
    }

    /// Whether the store holds an object for `digest` (content verified).
    pub fn contains(&self, digest: &Digest) -> bool {
        std::fs::read_to_string(self.object_path(digest))
            .is_ok_and(|text| Digest::of_text(&text) == *digest)
    }

    /// Fetches an object, verifying its content against its address.
    /// `Ok(None)` when absent; [`StoreError::Corrupt`] when present but
    /// failing verification even on a raw re-read.
    pub fn get(&self, digest: &Digest) -> Result<Option<String>, StoreError> {
        let path = self.object_path(digest);
        if let Ok(text) = gdf_core::io::read_to_string(&path) {
            if Digest::of_text(&text) == *digest {
                return Ok(Some(text));
            }
        }
        // Facade read failed or mis-verified — decide on raw bytes.
        match std::fs::read_to_string(&path) {
            Ok(text) if Digest::of_text(&text) == *digest => Ok(Some(text)),
            Ok(_) => Err(StoreError::Corrupt {
                what: "object".into(),
                path,
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", &path, &e)),
        }
    }

    fn encode_ref(name: &str, digest: &Digest) -> String {
        Json::Obj(vec![
            ("format".into(), Json::Str("gdf-store-ref".into())),
            ("version".into(), Json::Num(1.0)),
            ("name".into(), Json::Str(name.to_string())),
            ("object".into(), Json::Str(digest.hex())),
        ])
        .pretty()
    }

    fn decode_ref(text: &str) -> Option<Digest> {
        let j = Json::parse(text).ok()?;
        if j.get("format")?.as_str()? != "gdf-store-ref" {
            return None;
        }
        j.get("object")?.as_str()?.parse().ok()
    }

    /// Points `name` at `digest`. The object must already be stored; the
    /// ref write is verified, so a returned `Ok` means the name durably
    /// resolves.
    pub fn link(&self, name: &str, digest: &Digest) -> Result<(), StoreError> {
        validate_name(name)?;
        if !self.contains(digest) {
            return Err(StoreError::MissingObject(*digest));
        }
        self.write_verified(&self.ref_path(name), &Self::encode_ref(name, digest))
    }

    /// Resolves a name to its object digest. `Ok(None)` when absent;
    /// [`StoreError::Corrupt`] when the ref exists but cannot be decoded
    /// even from raw bytes (a `gc()` pass will quarantine it).
    pub fn resolve(&self, name: &str) -> Result<Option<Digest>, StoreError> {
        validate_name(name)?;
        let path = self.ref_path(name);
        if let Ok(text) = gdf_core::io::read_to_string(&path) {
            if let Some(digest) = Self::decode_ref(&text) {
                return Ok(Some(digest));
            }
        }
        match std::fs::read_to_string(&path) {
            Ok(text) => match Self::decode_ref(&text) {
                Some(digest) => Ok(Some(digest)),
                None => Err(StoreError::Corrupt {
                    what: "ref".into(),
                    path,
                }),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", &path, &e)),
        }
    }

    /// `resolve` + `get` in one step — the cache-lookup primitive.
    pub fn get_named(&self, name: &str) -> Result<Option<String>, StoreError> {
        let _span = gdf_core::phase::start("store_get");
        match self.resolve(name)? {
            None => Ok(None),
            Some(digest) => self.get(&digest),
        }
    }

    /// `put` + `link` in one step — the cache-publish primitive.
    pub fn publish(&self, name: &str, text: &str) -> Result<Digest, StoreError> {
        let _span = gdf_core::phase::start("store_publish");
        validate_name(name)?;
        let digest = self.put(text)?;
        self.link(name, &digest)?;
        Ok(digest)
    }

    /// Removes a name (the object stays until the next `gc`). Returns
    /// whether the name existed.
    pub fn unlink(&self, name: &str) -> Result<bool, StoreError> {
        validate_name(name)?;
        let path = self.ref_path(name);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err("remove", &path, &e)),
        }
    }

    /// All valid ref names, sorted.
    pub fn names(&self) -> Result<Vec<String>, StoreError> {
        let mut names: Vec<String> = self
            .dir_files(&self.refs_dir())?
            .into_iter()
            .filter_map(|p| {
                p.file_name()?
                    .to_str()?
                    .strip_suffix(".ref.json")
                    .map(str::to_string)
            })
            .collect();
        names.sort();
        Ok(names)
    }

    fn dir_files(&self, dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
        let entries = std::fs::read_dir(dir).map_err(|e| io_err("list", dir, &e))?;
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list", dir, &e))?;
            if entry
                .file_type()
                .map_err(|e| io_err("stat", dir, &e))?
                .is_file()
            {
                files.push(entry.path());
            }
        }
        files.sort();
        Ok(files)
    }

    /// Mark-and-sweep garbage collection.
    ///
    /// 1. Delete `*.tmp` stragglers in both directories — a temp file is
    ///    never authoritative (its rename either happened or never
    ///    will), so deleting one can neither orphan a live object nor
    ///    resurrect a dead one.
    /// 2. Mark: decode every ref; a ref unreadable even from raw bytes
    ///    is quarantined (renamed `*.corrupt`) so it stops resolving —
    ///    liveness is defined by *resolvable* names.
    /// 3. Sweep: delete every object file whose name is not a marked
    ///    digest (including files whose name is not a digest at all —
    ///    they are unreachable by construction).
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let mut report = GcReport::default();

        for dir in [self.objects_dir(), self.refs_dir()] {
            for path in self.dir_files(&dir)? {
                if path.extension().is_some_and(|e| e == "tmp")
                    && std::fs::remove_file(&path).is_ok()
                {
                    report.swept_tmps += 1;
                }
            }
        }

        let mut live: std::collections::BTreeSet<Digest> = std::collections::BTreeSet::new();
        for path in self.dir_files(&self.refs_dir())? {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.ends_with(".ref.json") {
                continue; // quarantined leftovers and foreign files
            }
            // Raw read: an injected read fault must not get a valid ref
            // quarantined (which would let its live target be swept).
            match std::fs::read_to_string(&path)
                .ok()
                .as_deref()
                .and_then(Self::decode_ref)
            {
                Some(digest) => {
                    live.insert(digest);
                }
                None => {
                    let mut quarantined = path.clone();
                    quarantined.as_mut_os_string().push(".corrupt");
                    if std::fs::rename(&path, &quarantined).is_ok() {
                        report.quarantined_refs += 1;
                    }
                }
            }
        }
        report.live_objects = live.len();

        for path in self.dir_files(&self.objects_dir())? {
            let digest: Option<Digest> = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".json"))
                .and_then(|stem| stem.parse().ok());
            let is_live = digest.as_ref().is_some_and(|d| live.contains(d));
            if !is_live && path.extension().is_some_and(|e| e == "json") {
                let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                if std::fs::remove_file(&path).is_ok() {
                    report.swept_objects += 1;
                    report.swept_bytes += bytes;
                }
            }
        }
        Ok(report)
    }

    /// Current size counters.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let mut stats = StoreStats::default();
        for path in self.dir_files(&self.objects_dir())? {
            if path.extension().is_some_and(|e| e == "json") {
                stats.objects += 1;
                stats.bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            }
        }
        stats.refs = self.names()?.len();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("gdf-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    #[test]
    fn put_get_round_trip_and_dedup() {
        let store = temp_store("roundtrip");
        let d1 = store.put("{\"doc\":1}").unwrap();
        let d2 = store.put("{\"doc\":1}").unwrap();
        assert_eq!(d1, d2, "identical content must share one address");
        assert_eq!(store.get(&d1).unwrap().as_deref(), Some("{\"doc\":1}"));
        assert_eq!(store.stats().unwrap().objects, 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn hostile_names_are_named_errors_not_panics() {
        let store = temp_store("hostile");
        let digest = store.put("x").unwrap();
        for name in [
            "",
            ".",
            "..",
            "../escape",
            "/etc/passwd",
            "a/b",
            "a\\b",
            ".hidden",
            "nul\0byte",
            "name with space",
            &"x".repeat(201),
        ] {
            assert!(
                matches!(store.link(name, &digest), Err(StoreError::BadName(_))),
                "{name:?} must be rejected"
            );
            assert!(matches!(store.resolve(name), Err(StoreError::BadName(_))));
        }
        // Nothing escaped into or out of the refs dir.
        assert_eq!(store.names().unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn link_requires_a_stored_object() {
        let store = temp_store("missing");
        let ghost = Digest::of_text("never stored");
        assert!(matches!(
            store.link("ghost", &ghost),
            Err(StoreError::MissingObject(_))
        ));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_sweeps_only_unreferenced_objects() {
        let store = temp_store("gc");
        let live = store.put("live content").unwrap();
        let dead = store.put("dead content").unwrap();
        store.link("keeper", &live).unwrap();
        // A straggler temp from a "crashed" write.
        std::fs::write(store.root().join("objects/half.json.tmp"), "part").unwrap();

        let report = store.gc().unwrap();
        assert_eq!(report.live_objects, 1);
        assert_eq!(report.swept_objects, 1);
        assert_eq!(report.swept_tmps, 1);
        assert!(report.swept_bytes > 0);
        assert_eq!(store.get(&live).unwrap().as_deref(), Some("live content"));
        assert_eq!(
            store.get(&dead).unwrap(),
            None,
            "dead object must stay dead"
        );

        // Unlink, then the object becomes sweepable.
        assert!(store.unlink("keeper").unwrap());
        let report = store.gc().unwrap();
        assert_eq!(report.swept_objects, 1);
        assert_eq!(store.stats().unwrap().objects, 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_object_is_reported_not_trusted() {
        let store = temp_store("corrupt");
        let digest = store.put("authentic").unwrap();
        std::fs::write(
            store.root().join(format!("objects/{digest}.json")),
            "forged",
        )
        .unwrap();
        assert!(matches!(
            store.get(&digest),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_ref_quarantines_and_heals() {
        let store = temp_store("refheal");
        let digest = store.put("the object").unwrap();
        store.link("good", &digest).unwrap();
        std::fs::write(store.root().join("refs/torn.ref.json"), "{\"form").unwrap();
        assert!(matches!(
            store.resolve("torn"),
            Err(StoreError::Corrupt { .. })
        ));
        let report = store.gc().unwrap();
        assert_eq!(report.quarantined_refs, 1);
        assert_eq!(report.live_objects, 1);
        // The torn name no longer resolves (heals to a miss), the good
        // name still does.
        assert_eq!(store.resolve("torn").unwrap(), None);
        assert_eq!(store.resolve("good").unwrap(), Some(digest));
        let _ = std::fs::remove_dir_all(store.root());
    }
}
