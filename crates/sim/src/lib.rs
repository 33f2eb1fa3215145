//! # rica-sim — deterministic discrete-event simulation engine
//!
//! The substrate every other crate in this workspace runs on. The paper's
//! evaluation (§III) is a pure event-driven simulation; this crate provides
//! the three primitives such a simulation needs:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock
//!   with total ordering and exact integer arithmetic (no floating-point
//!   drift in event ordering).
//! * [`Rng`] — a seedable, splittable xoshiro256++ random generator with the
//!   distribution samplers the models need (uniform, exponential for Poisson
//!   traffic, Gaussian for the fading processes). Implemented in-repo, so
//!   its integer stream is the same on every platform. The samplers and the
//!   channel model also call the host's libm (`ln`, `cos`, `exp`,
//!   `log10`), whose rounding differs between hosts: what holds is that the
//!   same binary on the same libm reproduces every trial bit for bit, at
//!   any worker count.
//! * [`EventQueue`] / [`Simulator`] — a cancellable priority queue of events
//!   with FIFO tie-breaking at equal timestamps, and a thin clock-advancing
//!   wrapper around it.
//!
//! # Example
//!
//! ```
//! use rica_sim::{SimDuration, Simulator};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sim = Simulator::new();
//! sim.schedule_in(SimDuration::from_millis(2), Ev::Pong);
//! sim.schedule_in(SimDuration::from_millis(1), Ev::Ping);
//! let (t1, e1) = sim.step().unwrap();
//! assert_eq!((t1.as_millis(), e1), (1, Ev::Ping));
//! let (t2, e2) = sim.step().unwrap();
//! assert_eq!((t2.as_millis(), e2), (2, Ev::Pong));
//! assert!(sim.step().is_none());
//! ```

#![warn(missing_docs)]

mod queue;
mod rng;
mod time;

pub use queue::{EventQueue, EventToken, Simulator};
pub use rng::Rng;
pub use time::{usable_mean_gap, SimDuration, SimTime};
