//! CSMA/CA binary exponential backoff.

use rica_sim::{Rng, SimDuration};

use crate::{BACKOFF_SLOT, CW_MAX};

/// Draws the random backoff before retrying after the `attempt`-th busy
/// carrier sense (0-based): uniform on the *nanosecond grid* `[1 ns,
/// window]` — half-open `[0, window)` shifted by one tick, so a draw is
/// never zero and retries always make progress. The window is
/// [`BACKOFF_SLOT`]` · 2^attempt` capped at [`CW_MAX`].
///
/// ```
/// use rica_mac::{backoff_delay, BACKOFF_SLOT};
/// use rica_sim::Rng;
///
/// let mut rng = Rng::new(1);
/// let d = backoff_delay(0, &mut rng);
/// assert!(d <= BACKOFF_SLOT);
/// ```
pub fn backoff_delay(attempt: u32, rng: &mut Rng) -> SimDuration {
    let window = (BACKOFF_SLOT * 2u64.saturating_pow(attempt.min(16))).min(CW_MAX);
    SimDuration::from_nanos(rng.u64_below(window.as_nanos()) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_grows_then_caps() {
        let mut rng = Rng::new(3);
        // Empirical max over many draws approximates the window.
        let max_for = |attempt: u32, rng: &mut Rng| {
            (0..2000).map(|_| backoff_delay(attempt, rng)).max().unwrap()
        };
        let m0 = max_for(0, &mut rng);
        let m2 = max_for(2, &mut rng);
        let m10 = max_for(10, &mut rng);
        assert!(m0 <= BACKOFF_SLOT);
        assert!(m2 > m0, "window should grow: {m2} vs {m0}");
        assert!(m10 <= CW_MAX, "window capped at CW_MAX");
    }

    #[test]
    fn always_positive() {
        let mut rng = Rng::new(4);
        for attempt in 0..20 {
            for _ in 0..100 {
                assert!(backoff_delay(attempt, &mut rng) > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn huge_attempt_does_not_overflow() {
        let mut rng = Rng::new(5);
        let d = backoff_delay(u32::MAX, &mut rng);
        assert!(d <= CW_MAX);
    }

    #[test]
    fn draws_cover_exactly_one_to_window() {
        // The documented support is the closed interval [1 ns, window]:
        // every draw is one uniform `[0, window)` draw plus one tick, so
        // both endpoints are reachable and nothing outside is…
        let mut rng = Rng::new(6);
        for attempt in 0..8 {
            let window = (BACKOFF_SLOT * (1 << attempt)).min(CW_MAX).as_nanos();
            for _ in 0..1_000 {
                let mut twin = rng.clone();
                let d = backoff_delay(attempt, &mut rng).as_nanos();
                assert_eq!(d, twin.u64_below(window) + 1, "attempt {attempt}");
                assert_eq!(rng, twin, "one draw per backoff");
            }
        }
        // …and the draws spread over the whole window: attempt 0 fills
        // every quarter of [1 ns, slot].
        let quarter = BACKOFF_SLOT.as_nanos() / 4;
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[((backoff_delay(0, &mut rng).as_nanos() - 1) / quarter) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "support not covered: {seen:?}");
    }
}
