//! A [`StorageIo`] that counts what the durability layer sends to storage
//! and remembers how much of each file has been made durable.
//!
//! The counts give bytes written per byte of user data and the flush
//! cost of a commit. The watermarks give the recovery check its input:
//! killing a process leaves the operating system's cache intact, so a
//! restart from the real directory proves nothing about unflushed bytes.
//! [`CountingIo::fsynced_image`] instead rebuilds the directory as a
//! power cut would leave it — every file cut back to what had been
//! fsynced — following [`MemIo`]'s crash model.

use sofya_durability::{MemIo, StorageIo, MANIFEST_FILE, WAL_FILE};
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bytes and calls of one file class (`write` and `append` together).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ClassCounters {
    pub bytes: u64,
    pub writes: u64,
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct IoCounters {
    pub wal: ClassCounters,
    pub segment: ClassCounters,
    pub manifest: ClassCounters,
    pub fsyncs: u64,
    pub fsync_time: Duration,
    /// Each rename also syncs the directory.
    pub renames: u64,
}

impl IoCounters {
    pub fn bytes_written(&self) -> u64 {
        self.wal.bytes + self.segment.bytes + self.manifest.bytes
    }

    /// What was counted after `earlier` was taken.
    pub fn since(&self, earlier: &IoCounters) -> IoCounters {
        let class = |now: ClassCounters, then: ClassCounters| ClassCounters {
            bytes: now.bytes - then.bytes,
            writes: now.writes - then.writes,
        };
        IoCounters {
            wal: class(self.wal, earlier.wal),
            segment: class(self.segment, earlier.segment),
            manifest: class(self.manifest, earlier.manifest),
            fsyncs: self.fsyncs - earlier.fsyncs,
            fsync_time: self.fsync_time - earlier.fsync_time,
            renames: self.renames - earlier.renames,
        }
    }

    fn class_mut(&mut self, name: &str) -> &mut ClassCounters {
        if name == WAL_FILE {
            &mut self.wal
        } else if name.starts_with(MANIFEST_FILE) {
            // The manifest and its staging file.
            &mut self.manifest
        } else {
            &mut self.segment
        }
    }
}

/// Length of a file and how much of it has been fsynced.
#[derive(Debug, Default, Clone, Copy)]
struct Watermark {
    len: u64,
    synced: u64,
}

#[derive(Debug, Default)]
struct State {
    counters: IoCounters,
    files: BTreeMap<String, Watermark>,
}

#[derive(Debug)]
pub struct CountingIo {
    inner: Arc<dyn StorageIo>,
    state: Mutex<State>,
}

impl CountingIo {
    /// Wraps `inner`, which must hold no files yet: a file written
    /// before the wrapper existed has no watermark.
    pub fn new(inner: Arc<dyn StorageIo>) -> Self {
        Self {
            inner,
            state: Mutex::new(State::default()),
        }
    }

    pub fn counters(&self) -> IoCounters {
        self.lock().counters
    }

    /// The directory as a power cut would leave it right now.
    pub fn fsynced_image(&self) -> io::Result<MemIo> {
        let files = self.lock().files.clone();
        let image = MemIo::new();
        for (name, mark) in files {
            let mut bytes = self.inner.read(&name)?;
            bytes.truncate(mark.synced as usize);
            image.write(&name, &bytes)?;
            image.fsync(&name)?;
        }
        Ok(image)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("counting I/O state is plain data; no holder panics")
    }
}

impl StorageIo for CountingIo {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn write(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(name, bytes)?;
        let mut state = self.lock();
        let class = state.counters.class_mut(name);
        class.bytes += bytes.len() as u64;
        class.writes += 1;
        // Truncation took the old content with it, durable or not.
        state.files.insert(
            name.to_owned(),
            Watermark {
                len: bytes.len() as u64,
                synced: 0,
            },
        );
        Ok(())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(name, bytes)?;
        let mut state = self.lock();
        let class = state.counters.class_mut(name);
        class.bytes += bytes.len() as u64;
        class.writes += 1;
        state.files.entry(name.to_owned()).or_default().len += bytes.len() as u64;
        Ok(())
    }

    fn fsync(&self, name: &str) -> io::Result<()> {
        let start = Instant::now();
        self.inner.fsync(name)?;
        let took = start.elapsed();
        let mut state = self.lock();
        state.counters.fsyncs += 1;
        state.counters.fsync_time += took;
        if let Some(mark) = state.files.get_mut(name) {
            mark.synced = mark.len;
        }
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)?;
        let mut state = self.lock();
        state.counters.renames += 1;
        if let Some(mark) = state.files.remove(from) {
            state.files.insert(to.to_owned(), mark);
        }
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)?;
        self.lock().files.remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contents(io: &MemIo) -> BTreeMap<String, Vec<u8>> {
        io.file_names()
            .into_iter()
            .map(|name| {
                let bytes = io.read(&name).unwrap();
                (name, bytes)
            })
            .collect()
    }

    /// One commit-and-checkpoint's worth of calls, with unflushed tails
    /// left behind in three different ways.
    fn script(io: &dyn StorageIo) {
        io.append(WAL_FILE, b"rec-1").unwrap();
        io.fsync(WAL_FILE).unwrap();
        io.append(WAL_FILE, b"torn-tail").unwrap(); // never fsynced
        io.write("runs-0001.seg", b"segment-bytes").unwrap();
        io.fsync("runs-0001.seg").unwrap();
        io.write("MANIFEST.tmp", b"manifest").unwrap();
        io.fsync("MANIFEST.tmp").unwrap();
        io.rename("MANIFEST.tmp", MANIFEST_FILE).unwrap();
        io.write("dict-0001.seg", b"never-synced").unwrap();
        io.write("runs-0000.seg", b"old").unwrap();
        io.fsync("runs-0000.seg").unwrap();
        io.remove("runs-0000.seg").unwrap();
        io.write("runs-0001.seg", b"rewritten, unsynced").unwrap();
    }

    #[test]
    fn image_equals_memio_after_a_crash() {
        let mem = Arc::new(MemIo::new());
        let counting = CountingIo::new(Arc::clone(&mem) as Arc<dyn StorageIo>);
        script(&counting);
        let image = counting.fsynced_image().unwrap();
        mem.crash();
        assert_eq!(contents(&image), contents(&mem));
        // The surviving state is exactly: flushed WAL prefix, manifest,
        // and two files a truncating write emptied.
        assert_eq!(image.read(WAL_FILE).unwrap(), b"rec-1");
        assert_eq!(image.read(MANIFEST_FILE).unwrap(), b"manifest");
        assert_eq!(image.read("runs-0001.seg").unwrap(), b"");
        assert!(!image.exists("runs-0000.seg"));
    }

    #[test]
    fn counters_split_bytes_by_file_class() {
        let counting = CountingIo::new(Arc::new(MemIo::new()));
        script(&counting);
        let c = counting.counters();
        assert_eq!(
            c.wal,
            ClassCounters {
                bytes: 14,
                writes: 2
            }
        );
        assert_eq!(
            c.manifest,
            ClassCounters {
                bytes: 8,
                writes: 1
            }
        );
        assert_eq!(c.segment.writes, 4);
        assert_eq!(c.segment.bytes, 13 + 12 + 3 + 19);
        assert_eq!((c.fsyncs, c.renames), (4, 1));
        assert_eq!(c.bytes_written(), 14 + 8 + 47);

        counting.append(WAL_FILE, b"xy").unwrap();
        let delta = counting.counters().since(&c);
        assert_eq!(
            delta.wal,
            ClassCounters {
                bytes: 2,
                writes: 1
            }
        );
        assert_eq!(delta.fsyncs, 0);
    }
}
