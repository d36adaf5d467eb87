//! Dense × dense contraction: a one-step chain and its download.

use super::{ChainSrc, ChainStep, DenseOp, Executor};
use crate::Result;
use tt_tensor::DenseTensor;

impl Executor {
    /// Distributed dense × dense contraction (einsum grammar), each
    /// operand by value (`&DenseTensor<f64>`) or by resident handle
    /// (`&OpHandle`): a one-step [`Executor::chain`] and its
    /// [`Executor::download`]. Results and α–β charges are
    /// bitwise-identical on every backend and for either operand form.
    pub fn contract<'a>(
        &self,
        spec: &str,
        a: impl Into<DenseOp<'a>>,
        b: impl Into<DenseOp<'a>>,
    ) -> Result<DenseTensor<f64>> {
        let step = ChainStep {
            spec,
            a: ChainSrc::Dense(a.into()),
            b: ChainSrc::Dense(b.into()),
            acc: None,
            mask: None,
        };
        self.download(self.one_step(&step)?)
    }
}
