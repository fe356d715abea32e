//! Timing wrappers around the program's extension traits. Each forwards
//! every call unchanged and records a span around it, so a traced run
//! computes exactly what an untraced one does (the benchmark checks the
//! rows byte for byte).

use std::sync::Arc;

use drcell_core::{CellSelectionPolicy, CoreError, CycleRecord};
use drcell_inference::ObservedMatrix;
use drcell_linalg::Matrix;
use drcell_neural::{Loss, Optimizer, Parameterized};
use drcell_rl::QNetwork;
use rand::RngCore;

use crate::trace::Tracer;

/// A Q-network whose single-state forwards, batched forwards and updates
/// are traced as `qnet.forward`, `qnet.forward_batch` and `qnet.update`. The agent's target network is a
/// clone and shares the tracer.
#[derive(Debug, Clone)]
pub struct TimedNet<N> {
    inner: N,
    tracer: Arc<Tracer>,
}

impl<N> TimedNet<N> {
    /// Wraps `inner`.
    pub fn new(inner: N, tracer: Arc<Tracer>) -> Self {
        TimedNet { inner, tracer }
    }
}

impl<N: Parameterized> Parameterized for TimedNet<N> {
    fn param_len(&self) -> usize {
        self.inner.param_len()
    }
    fn params(&self) -> Vec<f64> {
        self.inner.params()
    }
    fn set_params(&mut self, params: &[f64]) {
        self.inner.set_params(params);
    }
    fn grads(&self) -> Vec<f64> {
        self.inner.grads()
    }
    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }
}

impl<N: QNetwork> QNetwork for TimedNet<N> {
    fn q_values(&self, state: &Matrix) -> Vec<f64> {
        let _span = self.tracer.span("qnet.forward");
        self.inner.q_values(state)
    }

    fn q_values_batch(&self, states: &[&Matrix]) -> Matrix {
        let _span = self.tracer.span("qnet.forward_batch");
        self.inner.q_values_batch(states)
    }

    fn train_batch(
        &mut self,
        states: &[&Matrix],
        targets: &Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        let _span = self.tracer.span("qnet.update");
        self.inner.train_batch(states, targets, loss, optimizer)
    }

    fn train_td(
        &mut self,
        states: &[&Matrix],
        make_targets: &mut dyn FnMut(&Matrix) -> Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        let _span = self.tracer.span("qnet.update");
        self.inner.train_td(states, make_targets, loss, optimizer)
    }

    fn train_batch_reference(
        &mut self,
        states: &[&Matrix],
        targets: &Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        let _span = self.tracer.span("qnet.update");
        self.inner
            .train_batch_reference(states, targets, loss, optimizer)
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }
}

/// A selection policy whose `select_next` calls are traced as
/// `eval.select`.
pub struct TimedPolicy {
    inner: Box<dyn CellSelectionPolicy>,
    tracer: Arc<Tracer>,
}

impl TimedPolicy {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn CellSelectionPolicy>, tracer: Arc<Tracer>) -> Self {
        TimedPolicy { inner, tracer }
    }
}

impl CellSelectionPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_cycle_start(&mut self, cycle: usize) {
        self.inner.on_cycle_start(cycle);
    }

    fn on_cycle_end(&mut self, record: &CycleRecord, rng: &mut dyn RngCore) {
        self.inner.on_cycle_end(record, rng);
    }

    fn select_next(
        &mut self,
        obs: &ObservedMatrix,
        cycle: usize,
        rng: &mut dyn RngCore,
    ) -> Result<usize, CoreError> {
        let _span = self.tracer.span("eval.select");
        self.inner.select_next(obs, cycle, rng)
    }
}
