//! The benchmark's own seeded command generator.
//!
//! Inputs must not move when the program changes, so nothing here touches
//! `ossd_sim::SimRng`: the generator is a PCG-XSL-RR 128/64 (a different
//! algorithm from the program's xoshiro, so the two cannot silently become
//! the same stream) and every distribution helper is local.  The same seed
//! gives the same commands, bit for bit, on every commit.

/// PCG-XSL-RR 128/64 (O'Neill 2014): 128-bit LCG state, 64-bit output.
#[derive(Clone, Debug)]
pub struct Pcg64 {
    state: u128,
    inc: u128,
}

const PCG_MUL: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

impl Pcg64 {
    /// A generator for `seed` on the numbered `stream`; streams of one seed
    /// are independent, so addresses, sizes and arrivals never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let init = ((splitmix(seed) as u128) << 64) | splitmix(!seed) as u128;
        let mut rng = Pcg64 {
            state: 0,
            inc: ((stream as u128) << 1) | 1,
        };
        rng.next_u64();
        rng.state = rng.state.wrapping_add(init);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(PCG_MUL).wrapping_add(self.inc);
        let rot = (self.state >> 122) as u32;
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        xored.rotate_right(rot)
    }

    /// Uniform in `[0, bound)` by widening multiply (bias < 2^-64 * bound,
    /// far below anything a workload can see).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `(0, 1]`, so `ln` is always finite.
    pub fn unit_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Zipf(`s`) over `n` ranks by Walker's alias method: O(n) to build, one
/// draw and one table probe per sample.  Ranks are scattered over the
/// address space by a fixed multiplicative permutation so the hot set does
/// not sit in one translation page or on one element.
#[derive(Clone, Debug)]
pub struct Zipf {
    prob: Vec<f64>,
    alias: Vec<u32>,
    stride: u64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0 && n <= u32::MAX as u64);
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut prob = vec![1.0; n as usize];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let (mut small, mut large): (Vec<u32>, Vec<u32>) =
            (0..n as u32).partition(|&i| scaled[i as usize] < 1.0);
        while let (Some(&s_i), Some(&l_i)) = (small.last(), large.last()) {
            small.pop();
            prob[s_i as usize] = scaled[s_i as usize];
            alias[s_i as usize] = l_i;
            scaled[l_i as usize] -= 1.0 - scaled[s_i as usize];
            if scaled[l_i as usize] < 1.0 {
                large.pop();
                small.push(l_i);
            }
        }
        // A stride coprime to n makes rank -> address a permutation.
        let mut stride = (n as f64 * 0.618_033_988_75) as u64 | 1;
        while gcd(stride, n) != 1 {
            stride += 2;
        }
        Zipf {
            prob,
            alias,
            stride,
        }
    }

    pub fn sample(&self, rng: &mut Pcg64) -> u64 {
        let n = self.prob.len() as u64;
        let slot = rng.below(n) as usize;
        let rank = if rng.unit_open() <= self.prob[slot] {
            slot as u64
        } else {
            self.alias[slot] as u64
        };
        (rank * self.stride) % n
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One generated host command, in logical pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cmd {
    pub write: bool,
    pub lpn: u64,
    pub pages: u32,
}

/// How a workload draws addresses.
#[derive(Clone, Debug)]
pub enum Addresses {
    Uniform,
    Zipf(Zipf),
}

/// The command mix of one workload.
#[derive(Clone, Debug)]
pub struct Mix {
    /// Probability that a command is a read.
    pub read_share: f64,
    /// Whether writes draw from the 1/2/4/8-page mix of `sim_throughput`
    /// (5/8 single-page) instead of always one page.
    pub size_mix: bool,
    pub addresses: Addresses,
}

/// The command stream of one run: a pure function of (seed, mix, capacity).
#[derive(Clone, Debug)]
pub struct Stream {
    kinds: Pcg64,
    addrs: Pcg64,
    gaps: Pcg64,
    mix: Mix,
    logical_pages: u64,
    /// Arrival clock of the open-loop schedule, in simulated nanoseconds.
    arrival_ns: u64,
}

impl Stream {
    pub fn new(seed: u64, mix: Mix, logical_pages: u64) -> Self {
        Stream {
            kinds: Pcg64::new(seed, 1),
            addrs: Pcg64::new(seed, 2),
            gaps: Pcg64::new(seed, 3),
            mix,
            logical_pages,
            arrival_ns: 0,
        }
    }

    pub fn next_cmd(&mut self) -> Cmd {
        let write = self.kinds.unit_open() > self.mix.read_share;
        let pages = if write && self.mix.size_mix {
            match self.kinds.below(8) {
                0..=4 => 1,
                5 => 2,
                6 => 4,
                _ => 8,
            }
        } else {
            1
        };
        let span = self.logical_pages - pages as u64 + 1;
        let lpn = match &self.mix.addresses {
            Addresses::Uniform => self.addrs.below(span),
            Addresses::Zipf(z) => z.sample(&mut self.addrs).min(span - 1),
        };
        Cmd { write, lpn, pages }
    }

    /// Restarts the open-loop arrival clock at `base_ns`.
    pub fn start_arrivals_at(&mut self, base_ns: u64) {
        self.arrival_ns = base_ns;
    }

    /// The next Poisson arrival at `rate` commands per simulated second.
    /// The schedule depends only on the seed, never on how the device is
    /// doing, so generator lateness is zero by construction.
    pub fn next_arrival_ns(&mut self, rate: f64) -> u64 {
        let gap = -self.gaps.unit_open().ln() / rate * 1e9;
        self.arrival_ns += gap.round() as u64;
        self.arrival_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            read_share: 0.5,
            size_mix: true,
            addresses: Addresses::Zipf(Zipf::new(10_000, 0.8)),
        }
    }

    fn take(seed: u64, n: usize) -> Vec<(Cmd, u64)> {
        let mut s = Stream::new(seed, mix(), 10_000);
        (0..n)
            .map(|_| (s.next_cmd(), s.next_arrival_ns(1e5)))
            .collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(take(7, 2000), take(7, 2000));
        assert_ne!(take(7, 2000), take(8, 2000));
    }

    /// The stream is pinned to literal values, so no change to the program
    /// (its RNG included) can move the benchmark's inputs; and it is not the
    /// program's generator under another name.
    #[test]
    fn stream_is_pinned_and_is_not_the_programs_rng() {
        let mut rng = Pcg64::new(42, 1);
        let ours: Vec<u64> = (0..4).map(|_| rng.below(1 << 32)).collect();
        assert_eq!(ours, [3856448776, 3342644306, 1090119936, 1105461684]);
        let mut theirs = ossd_sim::SimRng::seed_from_u64(42);
        let theirs: Vec<u64> = (0..4).map(|_| theirs.next_u64_below(1 << 32)).collect();
        assert_ne!(ours, theirs);
        let cmds: Vec<Cmd> = take(42, 3).into_iter().map(|(c, _)| c).collect();
        assert_eq!(
            cmds,
            [
                Cmd {
                    write: true,
                    lpn: 5629,
                    pages: 4
                },
                Cmd {
                    write: false,
                    lpn: 1412,
                    pages: 1
                },
                Cmd {
                    write: false,
                    lpn: 5134,
                    pages: 1
                },
            ]
        );
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.8);
        let mut rng = Pcg64::new(1, 2);
        let mut counts = vec![0u32; 1000];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 maps to address 0 under the multiplicative permutation.
        let hottest = *counts.iter().max().unwrap();
        assert_eq!(counts[0], hottest);
        // Zipf(0.8) over 1000: p(rank 1) = 1 / H(1000, 0.8) ~ 0.063.
        let share = hottest as f64 / 200_000.0;
        assert!((0.05..0.08).contains(&share), "share {share}");
        assert!(counts.iter().filter(|&&c| c > 0).count() > 900);
    }

    #[test]
    fn arrivals_are_monotone_with_the_requested_mean() {
        let mut s = Stream::new(3, mix(), 10_000);
        s.start_arrivals_at(5_000);
        let mut last = 5_000;
        for _ in 0..100_000 {
            let at = s.next_arrival_ns(2e5);
            assert!(at >= last);
            last = at;
        }
        let mean_gap = (last - 5_000) as f64 / 100_000.0;
        assert!((4_900.0..5_100.0).contains(&mean_gap), "gap {mean_gap}");
    }
}
