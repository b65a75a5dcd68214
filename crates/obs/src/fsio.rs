//! Atomic result-file helpers.
//!
//! Benchmark and metrics emitters from concurrent processes all funnel into
//! `results/`. Plain `fs::write`/append can interleave partial lines when
//! two runs race; these helpers write a private temp file in the target
//! directory and `rename` it into place — `rename(2)` within one directory
//! is atomic, so readers observe either the old or the new file, never a
//! torn one.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinct temp names per call within one process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let file = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_owned());
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(".{file}.tmp.{}.{seq}", std::process::id()))
}

/// Write `bytes` to `path` atomically (write temp sibling, then rename),
/// creating parent directories as needed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, |file| file.write_all(bytes))
}

/// [`write_atomic`] of whatever `write` puts into the temp sibling, for a
/// file written in parts: the temp file is renamed over `path` once `write`
/// returns, and removed if `write` or the rename fails.
pub fn write_atomic_with(
    path: &Path,
    write: impl FnOnce(&mut fs::File) -> io::Result<()>,
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = temp_sibling(path);
    let done = fs::File::create(&tmp)
        .and_then(|mut file| write(&mut file))
        .and_then(|()| fs::rename(&tmp, path));
    if done.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    done
}

/// Append `bytes` to `path` atomically: read the current contents (if any),
/// concatenate, and [`write_atomic`] the result. Concurrent appenders can
/// still lose each other's *whole* update on a race, but a reader never sees
/// interleaved or truncated lines — the failure mode JSONL consumers care
/// about.
pub fn append_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut all = match fs::read(path) {
        Ok(existing) => existing,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    all.extend_from_slice(bytes);
    write_atomic(path, &all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cypress-fsio-{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn write_atomic_creates_missing_dirs() {
        let dir = tmpdir("write");
        let path = dir.join("nested/deeper/out.json");
        write_atomic(&path, b"{}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{}");
        // Overwrite replaces wholesale.
        write_atomic(&path, b"[1]").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"[1]");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_atomic_accumulates_lines() {
        let dir = tmpdir("append");
        let path = dir.join("log.jsonl");
        append_atomic(&path, b"{\"a\":1}\n").unwrap();
        append_atomic(&path, b"{\"b\":2}\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"a\":1}\n{\"b\":2}\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_leaves_the_old_file_and_no_temp() {
        let dir = tmpdir("failed");
        let path = dir.join("out.bin");
        write_atomic(&path, b"old").unwrap();
        let err = write_atomic_with(&path, |file| {
            file.write_all(b"half of the new")?;
            Err(io::Error::other("writer gave up"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "writer gave up");
        assert_eq!(fs::read(&path).unwrap(), b"old");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_temp_litter_left_behind() {
        let dir = tmpdir("litter");
        let path = dir.join("out.txt");
        write_atomic(&path, b"x").unwrap();
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["out.txt".to_owned()]);
        let _ = fs::remove_dir_all(&dir);
    }
}
