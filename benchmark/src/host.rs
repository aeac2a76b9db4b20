//! What the harness reads from the host: `/proc/self`, a fixed
//! calibration loop, the facts every output is stamped with, and a
//! scratch directory inside the benchmark's own tree.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use std::{fs, process};

/// `benchmark/out/`: traces, result files and scratch directories. The
/// harness writes nowhere else.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A uniquely named directory under [`out_dir`], removed on drop.
/// (`vagg_db::TempDir` would do, but it lives under the system temp
/// root and a benchmark run must stay inside its checkout.)
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("{label}-{}-{n}", process::id()));
        // A killed run with the same pid may have left one behind.
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("create scratch directory");
        Self(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Total size of the files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// The value of `key:` in a `/proc/self/*` table, as its first number.
fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/self/{file}")).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("status", "VmHWM").map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

/// Write counters of this process from `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    /// Bytes passed to write-like system calls.
    pub wchar: u64,
    /// Write-like system calls.
    pub syscw: u64,
}

impl IoCounters {
    pub fn read() -> Self {
        Self {
            wchar: proc_field("io", "wchar").unwrap_or(0),
            syscw: proc_field("io", "syscw").unwrap_or(0),
        }
    }

    pub fn since(self, earlier: IoCounters) -> Self {
        Self {
            wchar: self.wchar - earlier.wchar,
            syscw: self.syscw - earlier.syscw,
        }
    }
}

/// The reference chunk: a fixed piece of work that belongs to the
/// harness alone (no engine crate is involved, so no change to the
/// engine moves it), run between operations to tell how fast the host
/// is going *right now*. See [`crate::workloads::Clock`].
#[derive(Debug)]
pub struct Reference {
    table: Vec<u64>,
    state: u64,
}

impl Reference {
    /// What one chunk takes on the reference host when nothing else
    /// contends for it. A constant: calibrated times are expressed at
    /// the host speed at which the chunk takes exactly this long.
    pub const NOMINAL_MS: f64 = 2.0;
    const STEPS: usize = 900_000;
    /// 256 KiB: inside the host's L2, so the chunk feels cache and
    /// memory contention as well as a slower core.
    const TABLE: usize = 1 << 15;

    /// A warmed reference: the first pass over a fresh table pays
    /// for its pages and is not a sample.
    pub fn new() -> Self {
        let mut reference = Self {
            table: vec![0; Self::TABLE],
            state: 0x9E37_79B9_7F4A_7C15,
        };
        reference.chunk_ms();
        reference
    }

    /// Runs one chunk and returns its milliseconds.
    pub fn chunk_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..Self::STEPS {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x >> 40) as usize & (Self::TABLE - 1);
            self.table[i] = self.table[i].wrapping_add(x);
            acc = acc.wrapping_add(self.table[i.wrapping_mul(7) & (Self::TABLE - 1)]);
        }
        self.state = x ^ std::hint::black_box(acc);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Milliseconds one reference chunk takes right now — not a
/// metric of the engine but a noise flag: a run whose calibration
/// reads well above [`Reference::NOMINAL_MS`] ran while the host was
/// busy with something else.
pub fn calib_ms() -> f64 {
    Reference::new().chunk_ms()
}

/// The calibration chunk alone, then on two threads at once (the wall
/// time until both finish). On a host that delivers two cores the two
/// figures are about equal; on one that delivers a single core's worth
/// the second is about double — and every number that depends on two
/// threads making progress together should be read with that in mind.
pub fn calib_pair_ms() -> (f64, f64) {
    // Both warmed before either is timed, so the two figures time the
    // same work: one chunk.
    let (mut here, mut there) = (Reference::new(), Reference::new());
    let one = here.chunk_ms();
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| there.chunk_ms());
        here.chunk_ms();
    });
    (one, start.elapsed().as_secs_f64() * 1e3)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// File-system type of the mount holding `path`, from `/proc/mounts`.
fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// The WAL's flush policy as the engine has it today, recorded because
/// every write-path number depends on it.
pub const WAL_FLUSH_POLICY: &str =
    "flush to the OS cache per record, no fsync (durable against process death, not power loss)";

/// The facts every output is stamped with.
pub fn stamp() -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", cores.to_string()),
        (
            "git_commit",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
        ("rustc", command_line("rustc", &["-V"])),
        (
            "cargo_profile",
            if cfg!(debug_assertions) {
                "dev"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("wal_flush_policy", WAL_FLUSH_POLICY.to_string()),
        ("out_dir_fs", fs_type(&out_dir())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let before = IoCounters::read();
        let dir = ScratchDir::new("host-test");
        fs::write(dir.path().join("x"), vec![0u8; 4096]).unwrap();
        let delta = IoCounters::read().since(before);
        assert!(delta.wchar >= 4096 && delta.syscw >= 1);
        assert_eq!(dir_bytes(dir.path()), 4096);
        let path = dir.path().to_path_buf();
        drop(dir);
        assert!(
            !path.exists(),
            "scratch directories clean up after themselves"
        );
    }

    #[test]
    fn stamp_names_the_host_facts() {
        let s = stamp();
        for key in [
            "nproc",
            "git_commit",
            "rustc",
            "cargo_profile",
            "out_dir_fs",
        ] {
            assert!(s.iter().any(|(k, v)| *k == key && !v.is_empty()), "{key}");
        }
        assert!(calib_ms() > 0.0);
    }
}
