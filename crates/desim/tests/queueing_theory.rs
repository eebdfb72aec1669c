//! Queueing-theory validation of the DES engine.
//!
//! The classic acceptance test for a discrete-event simulator: an M/M/1
//! queue's simulated statistics must match the analytic formulas
//! (utilization ρ, mean number in system ρ/(1−ρ), mean sojourn time
//! 1/(μ−λ) by Little's law). This exercises the engine loop, the event
//! queue, and a time-weighted average together under heavy event churn,
//! with an independent ground truth.

use pckpt_desim::{Ctx, Model, SimDuration, SimTime, Simulation};
use pckpt_simrng::{Distribution, Exponential, SimRng};

/// Time-weighted mean of a piecewise-constant signal (customers in
/// system, server busy).
#[derive(Debug, Clone)]
struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    weighted_sum: f64,
    observed: SimDuration,
}

impl TimeWeighted {
    fn new(initial: f64) -> Self {
        Self {
            value: initial,
            last_change: SimTime::ZERO,
            weighted_sum: 0.0,
            observed: SimDuration::ZERO,
        }
    }

    /// Records that the signal changed to `value` at time `now`.
    fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.since(self.last_change);
        self.weighted_sum += self.value * dt.as_secs();
        self.observed += dt;
        self.last_change = now;
        self.value = value;
    }

    /// Time-weighted mean over `[0, now]`.
    fn mean(&self, now: SimTime) -> f64 {
        let dt = now.since(self.last_change);
        let total = self.observed + dt;
        if total.is_zero() {
            return self.value;
        }
        (self.weighted_sum + self.value * dt.as_secs()) / total.as_secs()
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival,
    Departure,
}

struct Mm1 {
    rng: SimRng,
    interarrival: Exponential,
    service: Exponential,
    queue_len: u64, // customers in system (incl. in service)
    in_system: TimeWeighted,
    busy: TimeWeighted,
    arrivals: u64,
    departures: u64,
    sojourn_sum: f64,
    arrival_times: std::collections::VecDeque<SimTime>,
    max_customers: u64,
}

impl Mm1 {
    fn new(lambda: f64, mu: f64, max_customers: u64, seed: u64) -> Self {
        Self {
            rng: SimRng::seed_from(seed),
            interarrival: Exponential::from_rate(lambda),
            service: Exponential::from_rate(mu),
            queue_len: 0,
            in_system: TimeWeighted::new(0.0),
            busy: TimeWeighted::new(0.0),
            arrivals: 0,
            departures: 0,
            sojourn_sum: 0.0,
            arrival_times: std::collections::VecDeque::new(),
            max_customers,
        }
    }
}

impl Model for Mm1 {
    type Event = Ev;

    fn init(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let gap = self.interarrival.sample(&mut self.rng);
        ctx.schedule_in(SimDuration::from_secs(gap), Ev::Arrival);
    }

    fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        let now = ctx.now();
        match ev {
            Ev::Arrival => {
                self.arrivals += 1;
                self.arrival_times.push_back(now);
                self.queue_len += 1;
                self.in_system.set(now, self.queue_len as f64);
                if self.queue_len == 1 {
                    self.busy.set(now, 1.0);
                    let s = self.service.sample(&mut self.rng);
                    ctx.schedule_in(SimDuration::from_secs(s), Ev::Departure);
                }
                if self.arrivals < self.max_customers {
                    let gap = self.interarrival.sample(&mut self.rng);
                    ctx.schedule_in(SimDuration::from_secs(gap), Ev::Arrival);
                }
            }
            Ev::Departure => {
                self.departures += 1;
                let arrived = self.arrival_times.pop_front().expect("FIFO discipline");
                self.sojourn_sum += now.since(arrived).as_secs();
                self.queue_len -= 1;
                self.in_system.set(now, self.queue_len as f64);
                if self.queue_len > 0 {
                    let s = self.service.sample(&mut self.rng);
                    ctx.schedule_in(SimDuration::from_secs(s), Ev::Departure);
                } else {
                    self.busy.set(now, 0.0);
                }
            }
        }
    }
}

fn simulate(lambda: f64, mu: f64, customers: u64, seed: u64) -> (f64, f64, f64, SimTime) {
    let mut sim = Simulation::new(Mm1::new(lambda, mu, customers, seed));
    sim.run();
    let end = sim.now();
    let m = sim.model();
    assert_eq!(m.arrivals, customers);
    assert_eq!(m.departures, customers, "queue must drain");
    (
        m.busy.mean(end),
        m.in_system.mean(end),
        m.sojourn_sum / m.departures as f64,
        end,
    )
}

#[test]
fn mm1_matches_analytic_at_moderate_load() {
    let (lambda, mu) = (0.6, 1.0);
    let rho = lambda / mu;
    let (util, l, w, _) = simulate(lambda, mu, 200_000, 11);
    assert!((util - rho).abs() < 0.01, "utilization {util} vs ρ {rho}");
    let l_expected = rho / (1.0 - rho); // 1.5
    assert!(
        (l - l_expected).abs() / l_expected < 0.05,
        "L {l} vs analytic {l_expected}"
    );
    let w_expected = 1.0 / (mu - lambda); // 2.5
    assert!(
        (w - w_expected).abs() / w_expected < 0.05,
        "W {w} vs analytic {w_expected}"
    );
}

#[test]
fn mm1_matches_analytic_at_high_load() {
    let (lambda, mu) = (0.85, 1.0);
    let rho: f64 = lambda / mu;
    let (util, l, w, _) = simulate(lambda, mu, 400_000, 23);
    assert!((util - rho).abs() < 0.01);
    let l_expected = rho / (1.0 - rho); // ≈ 5.67
    assert!(
        (l - l_expected).abs() / l_expected < 0.10,
        "L {l} vs analytic {l_expected} (high-load variance)"
    );
    // Little's law cross-check: L ≈ λ·W on the simulated values
    // themselves (tighter than matching the analytic constants).
    assert!((l - lambda * w).abs() / l < 0.03, "Little: L {l} vs λW {}", lambda * w);
}

#[test]
fn mm1_empty_system_fraction() {
    // P(empty) = 1 − ρ; check via the busy monitor's complement.
    let (lambda, mu) = (0.3, 1.0);
    let (util, _, _, _) = simulate(lambda, mu, 150_000, 5);
    assert!((1.0 - util - 0.7).abs() < 0.01);
}

#[test]
fn time_weighted_mean_of_step_signal() {
    let t = SimTime::from_secs;
    let mut w = TimeWeighted::new(0.0);
    // 0 for 10 s, 4 for 10 s, then 2: the mean over [0, 30] is
    // (0·10 + 4·10 + 2·10) / 30 = 2.
    w.set(t(10.0), 4.0);
    w.set(t(20.0), 2.0);
    assert!((w.mean(t(30.0)) - 2.0).abs() < 1e-12);
}

#[test]
fn time_weighted_mean_at_zero_observation() {
    let w = TimeWeighted::new(7.0);
    assert_eq!(w.mean(SimTime::ZERO), 7.0);
}
