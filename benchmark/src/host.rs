//! What the benchmark does about the host it runs on: it keeps to one
//! CPU, and it measures how fast that CPU is going while the run lasts.
//!
//! **One CPU.** The sandboxes this benchmark is judged on give it two
//! virtual CPUs of a shared host, and what the second adds there is
//! mostly noise: a wake-up that crosses CPUs costs ≈40 µs against ≈2 µs
//! on the same one, and a CPU slows by a quarter to two thirds while its
//! sibling is busy. Left to the kernel's placement, `federated_align` —
//! one chain of threads handing a request along — ran 2.7 times *slower*
//! on two CPUs than on one, and how much slower changed from run to run.
//! On one CPU the threads take turns, every hand-off is local, and a run
//! measures the work the program does. What it cannot show is a gain
//! from parallelism.
//!
//! **Host speed.** The same CPU runs the same code at speeds that differ
//! by a factor of up to two, for minutes at a time, depending on what the
//! host's other tenants do. No statistic of one run can take that out: a
//! whole run lands in a fast spell or a slow one. So a [`Calibrator`]
//! thread runs a fixed piece of work — [`Kernel`] — every twenty
//! milliseconds for as long as the benchmark measures, and records the
//! CPU time it took. Timings are then reported as they would read on a
//! host on which the kernel takes its reference time: a block of
//! operations measured while the kernel took 30 % longer has its
//! latencies divided by 1.3. The raw readings are printed beside the
//! adjusted ones.

use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bits of a `cpu_set_t` as glibc defines it: 1024 CPUs.
const WORDS: usize = 16;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Restricts this process (call before any thread is spawned: threads
/// inherit the mask) to the first CPU it is allowed on. Returns that CPU,
/// or `None` when the kernel refuses either call.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is `size` writable bytes, which is what the call
    // is told; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().find(|(_, bits)| **bits != 0)?;
    let bit = bits.trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is `size` readable bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// CPU time the calling thread has used: time it was running, not time
/// it waited for the CPU, so a reading taken around a piece of work says
/// how fast the CPU did it however often the thread was preempted.
fn thread_cpu_time() -> Duration {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a writable `timespec`.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) } != 0 {
        return Duration::ZERO;
    }
    Duration::new(
        time.sec.max(0) as u64,
        time.nsec.clamp(0, 999_999_999) as u32,
    )
}

/// CPU time of [`Kernel::user`] and of [`Kernel::system`] on the host the
/// adjusted timings are stated for: the sandbox this benchmark was
/// written on, at its quietest. Microseconds.
pub const REFERENCE_USER_US: f64 = 200.0;
pub const REFERENCE_SYSTEM_US: f64 = 30.0;

/// Strings the user half of the kernel handles per run.
const TERMS: usize = 600;
/// Socket calls the system half makes per run: writes and reads, paired.
const CALLS: usize = 32;

/// A fixed piece of work with the program's habits, in two halves.
///
/// What slows this host down is a busy sibling CPU, and that costs code
/// in proportion to how much of the core it can use: a chain of
/// dependent loads loses nothing, a sort a third, a system call half. A
/// kernel that is to track the program must therefore be code of the
/// program's kind. The *user* half does what the program's user-mode
/// code does all day with the standard library — formats IRIs, hashes
/// them into a dictionary, looks them up, keeps sorted runs of id
/// triples. The *system* half writes and reads a socket pair. A run
/// weighs the two by how its own CPU time divided between user and
/// system mode ([`Speed::slowdown`]).
pub struct Kernel {
    seed: u64,
    near: UnixStream,
    far: UnixStream,
}

impl Kernel {
    pub fn new() -> std::io::Result<Self> {
        let (near, far) = UnixStream::pair()?;
        Ok(Self {
            seed: 0x9e37_79b9_7f4a_7c15,
            near,
            far,
        })
    }

    fn next(&mut self) -> u64 {
        // xorshift64*: any fixed scramble will do.
        self.seed ^= self.seed >> 12;
        self.seed ^= self.seed << 25;
        self.seed ^= self.seed >> 27;
        self.seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// The user half.
    pub fn user(&mut self) -> u64 {
        let mut dictionary: HashMap<String, u32> = HashMap::with_capacity(TERMS);
        let mut triples: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
        let mut names = Vec::with_capacity(TERMS);
        for i in 0..TERMS {
            let name = format!("<http://bench.sim/entity/e{}>", self.next() % 100_000);
            dictionary.insert(name.clone(), i as u32);
            names.push(name);
        }
        let mut sum = 0u64;
        for window in names.windows(3) {
            let id = |name: &String| dictionary.get(name).copied().unwrap_or(0);
            triples.insert((id(&window[0]), id(&window[1]), id(&window[2])));
        }
        names.sort_unstable();
        for (rank, name) in names.iter().enumerate() {
            sum = sum.wrapping_add(rank as u64 * name.len() as u64);
        }
        sum.wrapping_add(triples.range((100, 0, 0)..).count() as u64)
    }

    /// The system half.
    pub fn system(&mut self) -> std::io::Result<()> {
        let mut message = [7u8; 64];
        for _ in 0..CALLS {
            self.near.write_all(&message)?;
            self.far.read_exact(&mut message)?;
        }
        Ok(())
    }
}

/// Pause between two runs of the kernel: a duty cycle of a thirtieth.
const PAUSE: Duration = Duration::from_millis(20);

/// This process's CPU time so far in user and in system mode, in clock
/// ticks, as `/proc/self/stat` counts them (fields 14 and 15).
fn process_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name, field 2, may hold spaces; it ends at the last ')'.
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace();
    let user = fields.nth(11)?.parse().ok()?;
    let system = fields.next()?.parse().ok()?;
    Some((user, system))
}

/// One reading of the host's speed.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub at: Instant,
    /// CPU time of one [`Kernel::user`], microseconds.
    pub user_us: f64,
    /// CPU time of one [`Kernel::system`], microseconds.
    pub system_us: f64,
    /// The process's CPU time so far, `(user, system)` in clock ticks.
    pub ticks: (u64, u64),
}

/// The thread that takes the readings.
pub struct Calibrator {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<Reading>>,
}

impl Calibrator {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut readings = Vec::with_capacity(4096);
            let Ok(mut kernel) = Kernel::new() else {
                return readings;
            };
            while !flag.load(Ordering::Relaxed) {
                let before = thread_cpu_time();
                std::hint::black_box(kernel.user());
                let between = thread_cpu_time();
                let system = kernel.system();
                let after = thread_cpu_time();
                if let (Ok(()), Some(ticks)) = (system, process_cpu_ticks()) {
                    readings.push(Reading {
                        at: Instant::now(),
                        user_us: between.saturating_sub(before).as_secs_f64() * 1e6,
                        system_us: after.saturating_sub(between).as_secs_f64() * 1e6,
                        ticks,
                    });
                }
                std::thread::sleep(PAUSE);
            }
            readings
        });
        Self { stop, thread }
    }

    /// Stops the thread and returns its readings, in time order.
    pub fn finish(self) -> Speed {
        self.stop.store(true, Ordering::Relaxed);
        Speed {
            readings: self.thread.join().unwrap_or_default(),
        }
    }
}

/// The host's speed over a run, as the [`Calibrator`] read it.
#[derive(Debug, Default, Clone)]
pub struct Speed {
    readings: Vec<Reading>,
}

impl Speed {
    /// How much slower than the reference host this one went between
    /// `from` and `to`.
    ///
    /// The readings of that span give two factors — the median user-half
    /// time over [`REFERENCE_USER_US`], the median system-half time over
    /// [`REFERENCE_SYSTEM_US`] — and the share of its CPU time the
    /// process spent in system mode over the span says how to weigh them.
    /// A span with fewer than two readings is widened to the nearest
    /// ones; with no readings at all the factor is one and nothing is
    /// adjusted.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        self.parts(from, to).map_or(1.0, |p| {
            (1.0 - p.system_share) * p.user + p.system_share * p.system
        })
    }

    pub fn parts(&self, from: Instant, to: Instant) -> Option<Parts> {
        let first = self.readings.partition_point(|r| r.at < from);
        let last = self.readings.partition_point(|r| r.at <= to);
        // At least two readings, so the CPU-time counters have moved.
        let first = first.min(self.readings.len().saturating_sub(2));
        let last = last.max(first + 2).min(self.readings.len());
        let span = self.readings.get(first..last).filter(|s| s.len() >= 2)?;
        let median_of = |part: fn(&Reading) -> f64| {
            crate::stats::median(&span.iter().map(part).collect::<Vec<f64>>())
        };
        let (began, ended) = (span[0].ticks, span[span.len() - 1].ticks);
        let (user, system) = (
            ended.0.saturating_sub(began.0) as f64,
            ended.1.saturating_sub(began.1) as f64,
        );
        Some(Parts {
            user: median_of(|r| r.user_us) / REFERENCE_USER_US,
            system: median_of(|r| r.system_us) / REFERENCE_SYSTEM_US,
            system_share: if user + system > 0.0 {
                system / (user + system)
            } else {
                0.0
            },
        })
    }

    /// When the first and the last reading were taken.
    pub fn span(&self) -> Option<(Instant, Instant)> {
        Some((self.readings.first()?.at, self.readings.last()?.at))
    }

    pub fn len(&self) -> usize {
        self.readings.len()
    }
}

/// What [`Speed::slowdown`] is made of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Parts {
    /// Slowdown of user-mode code against the reference host.
    pub user: f64,
    /// Slowdown of system calls against the reference host.
    pub system: f64,
    /// Share of the process's CPU time spent in system mode.
    pub system_share: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_time() {
        let (mut a, mut b) = (Kernel::new().unwrap(), Kernel::new().unwrap());
        let first: Vec<u64> = (0..3).map(|_| a.user()).collect();
        let second: Vec<u64> = (0..3).map(|_| b.user()).collect();
        assert_eq!(first, second);
        a.system().unwrap();
    }

    #[test]
    fn process_cpu_time_is_readable_and_grows() {
        let before = process_cpu_ticks().expect("/proc/self/stat");
        let mut kernel = Kernel::new().unwrap();
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            std::hint::black_box(kernel.user());
        }
        let after = process_cpu_ticks().expect("/proc/self/stat");
        assert!(after.0 > before.0, "{before:?} -> {after:?}");
    }

    #[test]
    fn slowdown_weighs_the_halves_by_the_time_spent_in_each() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        // (ms, user slowdown, system slowdown, user ticks, system ticks)
        let speed = Speed {
            readings: [
                (10, 1.0, 1.0, 0, 0),
                (20, 1.25, 2.0, 3, 1),
                (30, 1.25, 2.0, 6, 2),
                (110, 2.0, 4.0, 6, 12),
                (120, 2.0, 4.0, 6, 22),
            ]
            .into_iter()
            .map(|(ms, user, system, user_ticks, system_ticks)| Reading {
                at: at(ms),
                user_us: user * REFERENCE_USER_US,
                system_us: system * REFERENCE_SYSTEM_US,
                ticks: (user_ticks, system_ticks),
            })
            .collect(),
        };
        // Three readings, medians 1.25 and 2.0, a quarter of the span's 8
        // ticks in system mode.
        assert_eq!(
            speed.parts(at(0), at(50)),
            Some(Parts {
                user: 1.25,
                system: 2.0,
                system_share: 0.25
            })
        );
        assert_eq!(speed.slowdown(at(0), at(50)), 0.75 * 1.25 + 0.25 * 2.0);
        // All of the span's CPU time in system mode.
        assert_eq!(speed.slowdown(at(100), at(200)), 4.0);
        // One reading inside, none inside, past the end: widened to two.
        assert_eq!(
            speed.slowdown(at(25), at(40)),
            speed.slowdown(at(25), at(115))
        );
        assert_eq!(speed.slowdown(at(40), at(60)), 4.0);
        assert_eq!(speed.slowdown(at(300), at(400)), 4.0);
        assert_eq!(Speed::default().slowdown(at(0), at(10)), 1.0);
    }
}
