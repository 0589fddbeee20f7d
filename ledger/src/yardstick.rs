//! The yardstick: a fixed piece of work of the ledger's own, timed beside
//! every measurement on the CPU the measurement ran on, that says how fast
//! that CPU is *right now*.
//!
//! The reference box is a 2-vCPU guest on a shared host. Each vCPU's speed
//! moves by 25–40% on its own, within a second or for minutes — the same
//! binary serves 835k pps, then 1050k, and process CPU time per frame moves
//! with it, so this is the core getting slower (a busy sibling hyperthread,
//! a frequency licence), not preemption. No statistic over the rounds of a
//! run removes a slow spell that outlasts the run. What does is dividing it
//! out: the yardstick calls nothing outside this file, so its time changes
//! with the machine and never with the code under test. Threads are pinned
//! (dispatcher on one CPU, shard workers on the others) so that it is known
//! which CPU's speed a measurement saw.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds one pass takes on the reference box when nothing else runs
/// on the host: speed 1.0. Frozen when the benchmark landed; every timing
/// the ledger reports is what the program would take at this speed.
const NOMINAL_PASS_NS: f64 = 700_000.0;

/// Entries and keys of the integer half of a pass: a 128 KiB ternary table
/// scanned word by word, the shape of the data plane's scan engine.
const ENTRIES: usize = 2048;
const KEYS: usize = 192;
/// Side of the square `f32` matrices of the floating-point half, the shape
/// of the trainer's inner loops, and the products per pass.
const SIDE: usize = 96;
const PRODUCTS: usize = 4;

/// Passes per probe; the quickest counts, which discards a pass the
/// scheduler interrupted.
const PASSES: usize = 3;

const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed (the 1024-bit
    // `cpu_set_t` of glibc); pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and every thread it spawns from now on) to
/// `cpus`. A sandbox that refuses leaves the thread where it was: the
/// numbers are then noisier, not wrong.
fn pin(cpus: &[usize]) {
    let mut mask = [0u64; CPU_SET_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < CPU_SET_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    if mask.iter().any(|&w| w != 0) {
        // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is
        // the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

/// Which CPU the dispatcher (the main thread: packing, inline passes,
/// set-up, republishes) and which CPUs the `shards` shard workers run on.
struct Placement {
    dispatcher: usize,
    shards: Vec<usize>,
}

static PLACEMENT: OnceLock<Option<Placement>> = OnceLock::new();

/// Pins the calling (main) thread to the dispatcher's CPU and reserves the
/// next `shards` CPUs for shard workers. With fewer than two CPUs to choose
/// from nothing is pinned. Call once, before any measurement.
pub fn place(shards: usize) {
    let placement = PLACEMENT.get_or_init(|| {
        let cpus = allowed_cpus();
        (cpus.len() >= 2).then(|| Placement {
            dispatcher: cpus[0],
            shards: cpus[1..cpus.len().min(shards + 1)].to_vec(),
        })
    });
    if let Some(p) = placement {
        pin(&[p.dispatcher]);
    }
}

fn placement() -> Option<&'static Placement> {
    PLACEMENT.get().and_then(Option::as_ref)
}

/// Runs `start` — something that spawns shard workers — restricted to the
/// shard CPUs, which the workers inherit, then returns the calling thread
/// to the dispatcher's CPU.
pub fn on_shard_cpus<T>(start: impl FnOnce() -> T) -> T {
    let Some(p) = placement() else {
        return start();
    };
    pin(&p.shards);
    let out = start();
    pin(&[p.dispatcher]);
    out
}

/// Yardstick speed of the dispatcher's CPU and (averaged) of the shard
/// CPUs at one moment; 1.0 is the reference box left alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    pub dispatcher: f64,
    pub shards: f64,
}

impl Speed {
    /// The mean of two probes bracketing a measurement.
    pub fn between(a: Speed, b: Speed) -> Speed {
        Speed {
            dispatcher: (a.dispatcher + b.dispatcher) / 2.0,
            shards: (a.shards + b.shards) / 2.0,
        }
    }

    /// The speed a measurement saw that spent `dispatcher_cpu_s` of CPU
    /// time on the dispatcher's thread and `shard_cpu_s` on the workers':
    /// each CPU's speed weighted by the work done on it.
    pub fn seen_by(&self, dispatcher_cpu_s: f64, shard_cpu_s: f64) -> f64 {
        let total = dispatcher_cpu_s + shard_cpu_s;
        if total <= 0.0 {
            return self.dispatcher;
        }
        (self.dispatcher * dispatcher_cpu_s + self.shards * shard_cpu_s) / total
    }
}

pub struct Yardstick {
    table: Vec<[u64; 8]>,
    keys: Vec<[u64; 4]>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut s = 0x1ed9e5u64;
        let table = (0..ENTRIES)
            .map(|_| std::array::from_fn(|_| splitmix(&mut s)))
            .collect();
        let keys = (0..KEYS)
            .map(|_| std::array::from_fn(|_| splitmix(&mut s)))
            .collect();
        let mut real = || (splitmix(&mut s) >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        Yardstick {
            table,
            keys,
            a: (0..SIDE * SIDE).map(|_| real()).collect(),
            b: (0..SIDE * SIDE).map(|_| real()).collect(),
            c: vec![0.0; SIDE * SIDE],
        }
    }

    /// Every key against every entry, no early exit: fixed work.
    fn scan(&self) -> u64 {
        let mut hits = 0u64;
        for key in black_box(&self.keys) {
            for e in black_box(&self.table) {
                let miss = ((key[0] ^ e[0]) & e[4])
                    | ((key[1] ^ e[1]) & e[5])
                    | ((key[2] ^ e[2]) & e[6])
                    | ((key[3] ^ e[3]) & e[7]);
                hits += u64::from(miss & 0xff == 0);
            }
        }
        hits
    }

    /// `c = a · b`, row by row.
    fn matmul(&mut self) -> f32 {
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        for i in 0..SIDE {
            let row = &mut self.c[i * SIDE..(i + 1) * SIDE];
            row.fill(0.0);
            for k in 0..SIDE {
                let aik = a[i * SIDE + k];
                for (c, b) in row.iter_mut().zip(&b[k * SIDE..(k + 1) * SIDE]) {
                    *c += aik * b;
                }
            }
        }
        self.c[SIDE + 1]
    }

    /// Speed of the CPU the calling thread is on: enough around work that
    /// only the calling thread does.
    pub fn probe_here(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..PASSES {
            let t0 = Instant::now();
            black_box(self.scan());
            for _ in 0..PRODUCTS {
                black_box(self.matmul());
            }
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        NOMINAL_PASS_NS / best
    }

    /// Speed of every CPU the benchmark uses. The calling thread visits
    /// the shard CPUs, so no worker may be busy meanwhile.
    pub fn probe(&mut self) -> Speed {
        let dispatcher = self.probe_here();
        let Some(p) = placement().filter(|p| !p.shards.is_empty()) else {
            return Speed {
                dispatcher,
                shards: dispatcher,
            };
        };
        let mut sum = 0.0;
        for &cpu in &p.shards {
            pin(&[cpu]);
            sum += self.probe_here();
        }
        pin(&[p.dispatcher]);
        Speed {
            dispatcher,
            shards: sum / p.shards.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_measurement_sees_each_cpu_by_the_work_done_on_it() {
        let s = Speed {
            dispatcher: 1.0,
            shards: 0.5,
        };
        assert_eq!(s.seen_by(1.0, 0.0), 1.0);
        assert_eq!(s.seen_by(0.0, 2.0), 0.5);
        assert_eq!(s.seen_by(1.0, 3.0), 0.625);
        assert_eq!(s.seen_by(0.0, 0.0), 1.0);
        let b = Speed::between(
            s,
            Speed {
                dispatcher: 0.5,
                shards: 1.0,
            },
        );
        assert_eq!((b.dispatcher, b.shards), (0.75, 0.75));
    }

    #[test]
    fn the_pass_is_fixed_work() {
        let mut y = Yardstick::new();
        assert_eq!(y.scan(), y.scan());
        assert_eq!(y.matmul().to_bits(), y.matmul().to_bits());
        let s = y.probe();
        assert!(s.dispatcher > 0.0 && s.shards > 0.0);
    }
}
