//! Point-to-point communication volume accounting.
//!
//! A [`Comm`] represents a communicator over `ranks` simulated processes.
//! It does no data movement — [`Comm::charge_p2p`] charges the
//! [`CostTracker`] with the superstep and critical-path bytes the message
//! would cost under the α–β model. [`crate::tsqr()`] charges its
//! `R`-merge tree through it, one message per level.

use crate::cost::{self, CostTracker};
use parking_lot::Mutex;
use std::sync::Arc;

/// A simulated communicator: rank count and the shared cost tracker its
/// messages charge into.
#[derive(Clone)]
pub struct Comm {
    ranks: usize,
    tracker: Arc<Mutex<CostTracker>>,
}

impl Comm {
    /// Communicator over `ranks` processes charging into `tracker`.
    pub fn new(ranks: usize, tracker: Arc<Mutex<CostTracker>>) -> Self {
        Self {
            ranks: ranks.max(1),
            tracker,
        }
    }

    /// Number of participating ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The shared cost tracker.
    pub fn tracker(&self) -> &Arc<Mutex<CostTracker>> {
        &self.tracker
    }

    /// Point-to-point message of `bytes`: one superstep, full volume.
    pub fn charge_p2p(&self, bytes: u64) {
        cost::charge(&self.tracker, |t| t.charge_superstep(bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn p2p_charges_one_superstep_at_the_exact_alpha_beta_cost() {
        let mut times = Vec::new();
        for machine in [Machine::blue_waters(16), Machine::stampede2(64)] {
            let tracker = Arc::new(Mutex::new(CostTracker::new(machine, 8)));
            let c = Comm::new(8, tracker);
            c.charge_p2p(4096);
            let t = c.tracker().lock();
            assert_eq!((t.supersteps, t.bytes_critical), (1, 4096));
            // the expression shape of `CostTracker::charge_superstep`, so
            // the comparison can be exact
            let expect = t.machine.alpha_s + 4096.0 * t.machine.beta_s_per_byte;
            assert_eq!(t.sim.comm.to_bits(), expect.to_bits());
            times.push(t.sim.comm);
        }
        assert_ne!(times[0], times[1], "different α/β, different time");
    }
}
