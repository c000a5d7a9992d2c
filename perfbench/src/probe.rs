//! A fixed reference kernel, timed between the sessions of an end-to-end
//! run, that tells how fast the host runs at the moment.
//!
//! On a shared host the same session runs up to ~30% faster or slower
//! for minutes at a time, as other guests come and go; steal time
//! explains little of it. Raw session times therefore move between runs
//! of the same code by more than any bound a change can be held to. The
//! kernel is a hold model on `std`'s `BinaryHeap` (pop the earliest
//! event, push it back later), the shape of the DES's inner loop. It is
//! benchmark code, so no change to the program moves it, and rescaling
//! a run's timings by `REFERENCE_MS / probe time` removes most of the
//! host's drift from them while keeping any change the program makes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Pending events the kernel holds.
const PENDING: usize = 20_000;
/// Pop/push pairs one timing runs.
const HOLDS: u32 = 100_000;

/// The kernel's median time over the benchmark's development runs on a
/// 2-vCPU Intel Xeon guest; rescaled timings read as on that host.
pub const REFERENCE_MS: f64 = 14.0;

pub struct Probe {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: u64,
}

impl Probe {
    /// Fill the heap and run the kernel once untimed, so page faults and
    /// the heap's growth stay out of every timing.
    pub fn new(seed: u64) -> Probe {
        let mut p = Probe {
            heap: BinaryHeap::with_capacity(PENDING),
            state: seed | 1,
        };
        for i in 0..PENDING as u32 {
            let t = p.next() % 1_000_000;
            p.heap.push(Reverse((t, i)));
        }
        p.hold();
        p
    }

    fn next(&mut self) -> u64 {
        // xorshift64
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    fn hold(&mut self) {
        for _ in 0..HOLDS {
            let Reverse((t, id)) = self.heap.pop().expect("the heap never empties");
            let later = t + self.next() % 50_000;
            self.heap.push(Reverse((later, id)));
        }
        black_box(self.heap.peek());
    }

    /// One timing of the kernel, in ms.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        self.hold();
        t.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_keeps_its_event_count_and_takes_time() {
        let mut p = Probe::new(7);
        let ms = p.time_ms();
        assert_eq!(p.heap.len(), PENDING);
        assert!(ms > 0.0 && ms.is_finite());
    }
}
