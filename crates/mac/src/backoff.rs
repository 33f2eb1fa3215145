//! CSMA/CA binary exponential backoff.

use rica_sim::{Rng, SimDuration};

use crate::MacConfig;

/// Draws the random backoff before retrying after the `attempt`-th busy
/// carrier sense (0-based): uniform on the *nanosecond grid* `[1 ns,
/// window]` — half-open `[0, window)` shifted by one tick, so a draw is
/// never zero and retries always make progress.
///
/// The window is `slot · 2^attempt` capped at `cw_max` and floored at
/// 1 µs, **floor last**: a `cw_max` configured below one microsecond is
/// re-inflated to the 1 µs floor rather than honoured. (A sub-µs cap
/// would produce degenerate sub-tick windows; the floor keeping
/// precedence over the cap is deliberate and covered by
/// `sub_microsecond_cw_max_is_floored`.)
///
/// ```
/// use rica_mac::{backoff_delay, MacConfig};
/// use rica_sim::Rng;
///
/// let cfg = MacConfig::default();
/// let mut rng = Rng::new(1);
/// let d = backoff_delay(&cfg, 0, &mut rng);
/// assert!(d <= cfg.slot);
/// ```
pub fn backoff_delay(cfg: &MacConfig, attempt: u32, rng: &mut Rng) -> SimDuration {
    let window = cfg.slot * 2u64.saturating_pow(attempt.min(16));
    let window = window.min(cfg.cw_max).max(SimDuration::from_micros(1));
    let ns = rng.u64_below(window.as_nanos().max(1)) + 1;
    SimDuration::from_nanos(ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_grows_then_caps() {
        let cfg = MacConfig::default();
        let mut rng = Rng::new(3);
        // Empirical max over many draws approximates the window.
        let max_for = |attempt: u32, rng: &mut Rng| {
            (0..2000).map(|_| backoff_delay(&cfg, attempt, rng)).max().unwrap()
        };
        let m0 = max_for(0, &mut rng);
        let m2 = max_for(2, &mut rng);
        let m10 = max_for(10, &mut rng);
        assert!(m0 <= cfg.slot);
        assert!(m2 > m0, "window should grow: {m2} vs {m0}");
        assert!(m10 <= cfg.cw_max, "window capped at cw_max");
    }

    #[test]
    fn always_positive() {
        let cfg = MacConfig::default();
        let mut rng = Rng::new(4);
        for attempt in 0..20 {
            for _ in 0..100 {
                assert!(backoff_delay(&cfg, attempt, &mut rng) > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn huge_attempt_does_not_overflow() {
        let cfg = MacConfig::default();
        let mut rng = Rng::new(5);
        let d = backoff_delay(&cfg, u32::MAX, &mut rng);
        assert!(d <= cfg.cw_max);
    }

    #[test]
    fn draws_cover_exactly_one_to_window() {
        // The documented support is the closed interval [1 ns, window]:
        // both endpoints are reachable and nothing outside is.
        let cfg = MacConfig { slot: SimDuration::from_nanos(4), ..MacConfig::default() };
        let mut rng = Rng::new(6);
        let mut seen = [false; 4];
        for _ in 0..10_000 {
            // A 4 ns slot at attempt 0 sits under the floor: the
            // effective window is exactly 1 µs.
            let d = backoff_delay(&cfg, 0, &mut rng).as_nanos();
            assert!((1..=1_000).contains(&d), "draw {d} outside [1, 1000] ns");
        }
        // Endpoint coverage on a tiny effective window: slot = 1 µs,
        // attempt 2 → window 4 µs; map draws into 4 buckets of 1 µs.
        let cfg = MacConfig { slot: SimDuration::from_micros(1), ..MacConfig::default() };
        for _ in 0..10_000 {
            let d = backoff_delay(&cfg, 2, &mut rng).as_nanos();
            assert!((1..=4_000).contains(&d));
            seen[((d - 1) / 1_000) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "support not covered: {seen:?}");
    }

    #[test]
    fn sub_microsecond_cw_max_is_floored() {
        // The 1 µs progress floor takes precedence over a degenerate
        // sub-microsecond cap: draws come from (0, 1 µs], not (0, cw_max].
        let cfg =
            MacConfig { slot: SimDuration::from_micros(100), cw_max: SimDuration::from_nanos(10) };
        let mut rng = Rng::new(7);
        let mut max_seen = 0;
        for _ in 0..5_000 {
            let d = backoff_delay(&cfg, 3, &mut rng).as_nanos();
            assert!((1..=1_000).contains(&d), "draw {d} escaped the 1 µs floor window");
            max_seen = max_seen.max(d);
        }
        assert!(max_seen > 900, "floor window not actually reached: max {max_seen}");
    }

    #[test]
    fn window_is_closed_at_the_top() {
        // Deterministic sweep: with a 2-tick window (slot 2 ns floored to
        // 1 µs — so shrink via cw_max instead: cap at 2 µs, attempt high)
        // the draw must eventually hit the top tick exactly.
        let cfg =
            MacConfig { slot: SimDuration::from_micros(1), cw_max: SimDuration::from_micros(2) };
        let mut rng = Rng::new(8);
        let mut hit_top = false;
        for _ in 0..20_000 {
            let d = backoff_delay(&cfg, 10, &mut rng);
            assert!(d <= cfg.cw_max);
            hit_top |= d == cfg.cw_max;
        }
        assert!(hit_top, "closed upper endpoint never drawn");
    }
}
