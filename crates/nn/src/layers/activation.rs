//! Activation layers.

use crate::layer::{Layer, LayerCost, OutputChecksum, ParamSlot};
use crate::workspace::{ActBuf, Workspace};
use pgmr_tensor::{relu, relu_backward, Tensor};

/// Rectified linear unit layer.
#[derive(Clone, Default)]
pub struct Relu {
    input_cache: Option<Tensor>,
    output_elems_per_image: u64,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.output_elems_per_image = (input.len() / input.shape().dim(0)) as u64;
        self.input_cache = Some(input.clone());
        relu(input)
    }

    fn forward_into(
        &mut self,
        mut input: ActBuf,
        _ws: &mut Workspace,
        _checked: bool,
    ) -> (ActBuf, Option<OutputChecksum>) {
        // Inference never calls backward: clamp in place (pass-through) and
        // skip the input cache. The cost metadata stays fed either way.
        self.output_elems_per_image = (input.len() / input.dims()[0]) as u64;
        self.input_cache = None;
        for v in input.data_mut() {
            *v = v.max(0.0);
        }
        (input, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.input_cache.as_ref().expect("relu backward called before forward");
        relu_backward(input, grad_output)
    }

    fn visit_slots(&mut self, _f: &mut dyn FnMut(&mut ParamSlot)) {}

    fn name(&self) -> &'static str {
        "relu"
    }

    fn cost(&self) -> LayerCost {
        LayerCost {
            kind: "relu",
            macs: 0,
            param_elems: 0,
            output_elems: self.output_elems_per_image,
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward() {
        let mut layer = Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-1., 0., 1., 2.]);
        let y = layer.forward(&x, true);
        assert_eq!(y.data(), &[0., 0., 1., 2.]);
        let dx = layer.backward(&Tensor::ones(vec![1, 4]));
        assert_eq!(dx.data(), &[0., 0., 1., 1.]);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_requires_forward() {
        Relu::new().backward(&Tensor::ones(vec![1]));
    }

    #[test]
    fn workspace_forward_clamps_in_place() {
        let mut layer = Relu::new();
        let mut ws = crate::workspace::Workspace::new();
        let mut buf = ws.acquire(&[1, 4]);
        buf.data_mut().copy_from_slice(&[-1., 0., 1., 2.]);
        let (out, _) = layer.forward_into(buf, &mut ws, false);
        assert_eq!(out.data(), &[0., 0., 1., 2.]);
        assert!(layer.input_cache.is_none(), "inference must not cache the input");
        assert_eq!(layer.cost().output_elems, 4);
    }
}
