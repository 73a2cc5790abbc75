//! Reverse-mode automatic differentiation tape.
//!
//! The AMCAD model (node encoder, GCN context encoding, space fusion,
//! edge-level scorer and losses) is expressed as a computation graph over
//! [`Tensor`] values.  Every operation appends a node to the [`Tape`]; a
//! single call to [`Tape::backward`] then accumulates gradients for every
//! node reachable from the scalar loss, including the trainable curvature
//! scalars that flow through the `TanKappa` / `AtanKappa` primitives.
//!
//! All parameters of the paper's model live in tangent (Euclidean) space —
//! the authors train them with vanilla AdaGrad — so no Riemannian optimiser
//! is required: plain reverse-mode gradients are exactly what the original
//! system computes.

use amcad_manifold::scalar as ms;

use crate::tensor::Tensor;

/// Handle to a node of the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Raw index of the node (stable for the lifetime of the tape).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Operations recorded on the tape.
#[derive(Debug, Clone)]
enum Op {
    /// Leaf value (input, constant or parameter copy).
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    Neg(Var),
    /// Multiply by a compile-time constant.
    Scale(Var, f64),
    /// Add a constant (its gradient is the identity).
    AddConst(Var),
    /// Matrix product `(r×k)·(k×c)`.
    Matmul(Var, Var),
    Sum(Var),
    Mean(Var),
    Dot(Var, Var),
    /// Concatenate row vectors along columns.
    ConcatCols(Vec<Var>),
    Tanh(Var),
    Sigmoid(Var),
    Relu(Var),
    Exp(Var),
    Ln(Var),
    Sqrt(Var),
    Square(Var),
    /// Row-wise softmax of a row vector.
    Softmax(Var),
    /// Broadcast: tensor op scalar-variable.
    MulScalar(Var, Var),
    DivScalar(Var, Var),
    /// Elementwise `tan_κ(x)` with a scalar curvature variable.
    TanKappa(Var, Var),
    /// Elementwise `tan⁻¹_κ(x)` with a scalar curvature variable.
    AtanKappa(Var, Var),
    /// Squared Euclidean norm of all elements (scalar output).
    NormSq(Var),
}

struct Node {
    op: Op,
    value: Tensor,
}

/// Reverse-mode autodiff tape.
///
/// Typical usage:
/// ```
/// use amcad_autodiff::{Tape, Tensor};
/// let mut t = Tape::new();
/// let x = t.leaf(Tensor::row(vec![1.0, 2.0]));
/// let w = t.leaf(Tensor::new(2, 1, vec![0.5, -0.25]));
/// let y = t.matmul(x, w);
/// let loss = t.sum(y);
/// let grads = t.backward(loss);
/// assert_eq!(grads.wrt(x).unwrap().data, vec![0.5, -0.25]);
/// ```
pub struct Tape {
    nodes: Vec<Node>,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss with respect to `var`, if it received any.
    pub fn wrt(&self, var: Var) -> Option<&Tensor> {
        self.grads[var.0].as_ref()
    }
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Create an empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(256),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current value of a variable.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// Record a leaf (input / parameter) value.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(Op::Leaf, value)
    }

    /// Record a scalar leaf.
    pub fn scalar(&mut self, v: f64) -> Var {
        self.leaf(Tensor::scalar(v))
    }

    /// Record a row-vector leaf.
    pub fn row(&mut self, data: Vec<f64>) -> Var {
        self.leaf(Tensor::row(data))
    }

    // ----- elementwise binary -----

    /// Elementwise addition of same-shaped tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x + y);
        self.push(Op::Add(a, b), v)
    }

    /// Elementwise subtraction of same-shaped tensors.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x - y);
        self.push(Op::Sub(a, b), v)
    }

    /// Elementwise multiplication of same-shaped tensors.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x * y);
        self.push(Op::Mul(a, b), v)
    }

    /// Elementwise division of same-shaped tensors.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip(self.value(b), |x, y| x / y);
        self.push(Op::Div(a, b), v)
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| -x);
        self.push(Op::Neg(a), v)
    }

    /// Multiply every element by a constant.
    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        let v = self.value(a).map(|x| x * c);
        self.push(Op::Scale(a, c), v)
    }

    /// Add a constant to every element.
    pub fn add_const(&mut self, a: Var, c: f64) -> Var {
        let v = self.value(a).map(|x| x + c);
        self.push(Op::AddConst(a), v)
    }

    // ----- broadcast with a scalar variable -----

    /// Multiply a tensor by a scalar variable (broadcast).
    pub fn mul_scalar(&mut self, a: Var, s: Var) -> Var {
        let sv = self.value(s).scalar_value();
        let v = self.value(a).map(|x| x * sv);
        self.push(Op::MulScalar(a, s), v)
    }

    /// Divide a tensor by a scalar variable (broadcast).
    pub fn div_scalar(&mut self, a: Var, s: Var) -> Var {
        let sv = self.value(s).scalar_value();
        let v = self.value(a).map(|x| x / sv);
        self.push(Op::DivScalar(a, s), v)
    }

    // ----- linear algebra -----

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::Matmul(a, b), v)
    }

    /// Dot product of two same-shaped tensors (scalar output).
    pub fn dot(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .value(a)
            .data
            .iter()
            .zip(&self.value(b).data)
            .map(|(x, y)| x * y)
            .sum();
        self.push(Op::Dot(a, b), Tensor::scalar(v))
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&mut self, a: Var) -> Var {
        let v = self.value(a).sum();
        self.push(Op::Sum(a), Tensor::scalar(v))
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let v = t.sum() / t.len() as f64;
        self.push(Op::Mean(a), Tensor::scalar(v))
    }

    /// Squared Euclidean norm of all elements (scalar output).
    pub fn norm_sq(&mut self, a: Var) -> Var {
        let v = self.value(a).data.iter().map(|x| x * x).sum();
        self.push(Op::NormSq(a), Tensor::scalar(v))
    }

    /// Euclidean norm, numerically guarded: `sqrt(‖a‖² + eps)`.
    pub fn norm(&mut self, a: Var, eps: f64) -> Var {
        let ns = self.norm_sq(a);
        let guarded = self.add_const(ns, eps);
        self.sqrt(guarded)
    }

    /// Concatenate row vectors along columns.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let mut data = Vec::new();
        for &p in parts {
            let t = self.value(p);
            assert_eq!(t.rows, 1, "concat_cols expects row vectors");
            data.extend_from_slice(&t.data);
        }
        self.push(Op::ConcatCols(parts.to_vec()), Tensor::row(data))
    }

    // ----- nonlinearities -----

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f64::tanh);
        self.push(Op::Tanh(a), v)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a), v)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f64::exp);
        self.push(Op::Exp(a), v)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(1e-300).ln());
        self.push(Op::Ln(a), v)
    }

    /// Elementwise square root (inputs are clamped at 0).
    pub fn sqrt(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0).sqrt());
        self.push(Op::Sqrt(a), v)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x * x);
        self.push(Op::Square(a), v)
    }

    /// Row-vector softmax.
    pub fn softmax(&mut self, a: Var) -> Var {
        let t = self.value(a);
        assert_eq!(t.rows, 1, "softmax expects a row vector");
        let max = t.data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = t.data.iter().map(|x| (x - max).exp()).collect();
        let total: f64 = exps.iter().sum();
        let v = Tensor::row(exps.into_iter().map(|e| e / total).collect());
        self.push(Op::Softmax(a), v)
    }

    // ----- curvature trigonometry primitives -----

    /// Elementwise `tan_κ(x)` where `kappa` is a scalar variable; gradients
    /// flow to both `x` and `κ` (the "adaptive" part of AMCAD).
    pub fn tan_kappa(&mut self, x: Var, kappa: Var) -> Var {
        let k = self.value(kappa).scalar_value();
        let v = self.value(x).map(|xi| ms::tan_kappa(xi, k));
        self.push(Op::TanKappa(x, kappa), v)
    }

    /// Elementwise `tan⁻¹_κ(x)` where `kappa` is a scalar variable.
    pub fn atan_kappa(&mut self, x: Var, kappa: Var) -> Var {
        let k = self.value(kappa).scalar_value();
        let v = self.value(x).map(|xi| ms::atan_kappa(xi, k));
        self.push(Op::AtanKappa(x, kappa), v)
    }

    // ----- backward -----

    /// Run reverse-mode accumulation from the scalar `loss` node.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert!(
            self.value(loss).is_scalar(),
            "backward requires a scalar loss node"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for idx in (0..=loss.0).rev() {
            let Some(grad) = grads[idx].clone() else {
                continue;
            };
            let node = &self.nodes[idx];
            match &node.op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    self.accumulate(&mut grads, *a, grad.clone());
                    self.accumulate(&mut grads, *b, grad);
                }
                Op::Sub(a, b) => {
                    self.accumulate(&mut grads, *a, grad.clone());
                    self.accumulate(&mut grads, *b, grad.map(|g| -g));
                }
                Op::Mul(a, b) => {
                    let ga = grad.zip(self.value(*b), |g, bv| g * bv);
                    let gb = grad.zip(self.value(*a), |g, av| g * av);
                    self.accumulate(&mut grads, *a, ga);
                    self.accumulate(&mut grads, *b, gb);
                }
                Op::Div(a, b) => {
                    let bv = self.value(*b);
                    let av = self.value(*a);
                    let ga = grad.zip(bv, |g, b| g / b);
                    let gb_data: Vec<f64> = grad
                        .data
                        .iter()
                        .zip(&av.data)
                        .zip(&bv.data)
                        .map(|((g, a), b)| -g * a / (b * b))
                        .collect();
                    let gb = Tensor::new(grad.rows, grad.cols, gb_data);
                    self.accumulate(&mut grads, *a, ga);
                    self.accumulate(&mut grads, *b, gb);
                }
                Op::Neg(a) => self.accumulate(&mut grads, *a, grad.map(|g| -g)),
                Op::Scale(a, c) => {
                    let c = *c;
                    self.accumulate(&mut grads, *a, grad.map(|g| g * c));
                }
                Op::AddConst(a) => self.accumulate(&mut grads, *a, grad),
                Op::Matmul(a, b) => {
                    let av = self.value(*a);
                    let bv = self.value(*b);
                    let ga = grad.matmul(&bv.transpose());
                    let gb = av.transpose().matmul(&grad);
                    self.accumulate(&mut grads, *a, ga);
                    self.accumulate(&mut grads, *b, gb);
                }
                Op::Sum(a) => {
                    let g = grad.scalar_value();
                    let av = self.value(*a);
                    self.accumulate(
                        &mut grads,
                        *a,
                        Tensor::new(av.rows, av.cols, vec![g; av.len()]),
                    );
                }
                Op::Mean(a) => {
                    let av = self.value(*a);
                    let g = grad.scalar_value() / av.len() as f64;
                    self.accumulate(
                        &mut grads,
                        *a,
                        Tensor::new(av.rows, av.cols, vec![g; av.len()]),
                    );
                }
                Op::Dot(a, b) => {
                    let g = grad.scalar_value();
                    let ga = self.value(*b).map(|bv| g * bv);
                    let gb = self.value(*a).map(|av| g * av);
                    self.accumulate(&mut grads, *a, ga);
                    self.accumulate(&mut grads, *b, gb);
                }
                Op::NormSq(a) => {
                    let g = grad.scalar_value();
                    let ga = self.value(*a).map(|av| 2.0 * g * av);
                    self.accumulate(&mut grads, *a, ga);
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let len = self.value(p).cols;
                        let slice = grad.data[offset..offset + len].to_vec();
                        self.accumulate(&mut grads, p, Tensor::row(slice));
                        offset += len;
                    }
                }
                Op::Tanh(a) => {
                    let ga = grad.zip(&node.value, |g, y| g * (1.0 - y * y));
                    self.accumulate(&mut grads, *a, ga);
                }
                Op::Sigmoid(a) => {
                    let ga = grad.zip(&node.value, |g, y| g * y * (1.0 - y));
                    self.accumulate(&mut grads, *a, ga);
                }
                Op::Relu(a) => {
                    let ga = grad.zip(self.value(*a), |g, x| if x > 0.0 { g } else { 0.0 });
                    self.accumulate(&mut grads, *a, ga);
                }
                Op::Exp(a) => {
                    let ga = grad.zip(&node.value, |g, y| g * y);
                    self.accumulate(&mut grads, *a, ga);
                }
                Op::Ln(a) => {
                    let ga = grad.zip(self.value(*a), |g, x| g / x.max(1e-300));
                    self.accumulate(&mut grads, *a, ga);
                }
                Op::Sqrt(a) => {
                    let ga = grad.zip(&node.value, |g, y| g / (2.0 * y.max(1e-12)));
                    self.accumulate(&mut grads, *a, ga);
                }
                Op::Square(a) => {
                    let ga = grad.zip(self.value(*a), |g, x| 2.0 * g * x);
                    self.accumulate(&mut grads, *a, ga);
                }
                Op::Softmax(a) => {
                    // dx = y ⊙ (g - ⟨g, y⟩)
                    let y = &node.value;
                    let inner: f64 = grad.data.iter().zip(&y.data).map(|(g, yi)| g * yi).sum();
                    let ga = Tensor::row(
                        grad.data
                            .iter()
                            .zip(&y.data)
                            .map(|(g, yi)| yi * (g - inner))
                            .collect(),
                    );
                    self.accumulate(&mut grads, *a, ga);
                }
                Op::MulScalar(a, s) => {
                    let sv = self.value(*s).scalar_value();
                    let ga = grad.map(|g| g * sv);
                    let gs: f64 = grad
                        .data
                        .iter()
                        .zip(&self.value(*a).data)
                        .map(|(g, a)| g * a)
                        .sum();
                    self.accumulate(&mut grads, *a, ga);
                    self.accumulate(&mut grads, *s, Tensor::scalar(gs));
                }
                Op::DivScalar(a, s) => {
                    let sv = self.value(*s).scalar_value();
                    let ga = grad.map(|g| g / sv);
                    let gs: f64 = grad
                        .data
                        .iter()
                        .zip(&self.value(*a).data)
                        .map(|(g, a)| -g * a / (sv * sv))
                        .sum();
                    self.accumulate(&mut grads, *a, ga);
                    self.accumulate(&mut grads, *s, Tensor::scalar(gs));
                }
                Op::TanKappa(x, kappa) => {
                    let k = self.value(*kappa).scalar_value();
                    let xv = self.value(*x);
                    let gx = grad.zip(xv, |g, xi| g * ms::tan_kappa_dx(xi, k));
                    let gk: f64 = grad
                        .data
                        .iter()
                        .zip(&xv.data)
                        .map(|(g, xi)| g * ms::tan_kappa_dkappa(*xi, k))
                        .sum();
                    self.accumulate(&mut grads, *x, gx);
                    self.accumulate(&mut grads, *kappa, Tensor::scalar(gk));
                }
                Op::AtanKappa(x, kappa) => {
                    let k = self.value(*kappa).scalar_value();
                    let xv = self.value(*x);
                    let gx = grad.zip(xv, |g, xi| g * ms::atan_kappa_dy(xi, k));
                    let gk: f64 = grad
                        .data
                        .iter()
                        .zip(&xv.data)
                        .map(|(g, xi)| g * ms::atan_kappa_dkappa(*xi, k))
                        .sum();
                    self.accumulate(&mut grads, *x, gx);
                    self.accumulate(&mut grads, *kappa, Tensor::scalar(gk));
                }
            }
        }

        Gradients { grads }
    }

    fn accumulate(&self, grads: &mut [Option<Tensor>], var: Var, incoming: Tensor) {
        match &mut grads[var.0] {
            Some(existing) => {
                debug_assert!(existing.same_shape(&incoming));
                for (e, i) in existing.data.iter_mut().zip(&incoming.data) {
                    *e += i;
                }
            }
            slot @ None => *slot = Some(incoming),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check helper: rebuilds the graph through
    /// `f` with one perturbed input element and compares against the
    /// analytic gradient.
    fn grad_check<F>(inputs: &[Vec<f64>], f: F)
    where
        F: Fn(&mut Tape, &[Var]) -> Var,
    {
        let build = |vals: &[Vec<f64>]| -> (Tape, Vec<Var>, Var) {
            let mut t = Tape::new();
            let vars: Vec<Var> = vals.iter().map(|v| t.row(v.clone())).collect();
            let out = f(&mut t, &vars);
            (t, vars, out)
        };
        let (tape, vars, out) = build(inputs);
        let grads = tape.backward(out);
        let h = 1e-6;
        for (i, input) in inputs.iter().enumerate() {
            let analytic = grads.wrt(vars[i]).expect("every input reaches the loss");
            for j in 0..input.len() {
                let mut plus = inputs.to_vec();
                plus[i][j] += h;
                let mut minus = inputs.to_vec();
                minus[i][j] -= h;
                let (tp, _, op) = build(&plus);
                let (tm, _, om) = build(&minus);
                let fd = (tp.value(op).scalar_value() - tm.value(om).scalar_value()) / (2.0 * h);
                let a = analytic.data[j];
                assert!(
                    (a - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                    "input {i} elem {j}: analytic {a} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn add_mul_sum_gradients() {
        grad_check(&[vec![0.5, -1.2, 2.0], vec![1.5, 0.3, -0.7]], |t, v| {
            let s = t.add(v[0], v[1]);
            let p = t.mul(s, v[0]);
            t.sum(p)
        });
    }

    #[test]
    fn matmul_gradients() {
        // treat the second input as a 3x2 matrix
        let inputs = vec![vec![0.5, -1.2, 2.0], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]];
        let build = |vals: &[Vec<f64>]| -> (Tape, Vec<Var>, Var) {
            let mut t = Tape::new();
            let x = t.row(vals[0].clone());
            let w = t.leaf(Tensor::new(3, 2, vals[1].clone()));
            let y = t.matmul(x, w);
            let out = t.sum(y);
            (t, vec![x, w], out)
        };
        let (tape, vars, out) = build(&inputs);
        let grads = tape.backward(out);
        let h = 1e-6;
        for (i, input) in inputs.iter().enumerate() {
            for j in 0..input.len() {
                let mut plus = inputs.clone();
                plus[i][j] += h;
                let mut minus = inputs.clone();
                minus[i][j] -= h;
                let (tp, _, op) = build(&plus);
                let (tm, _, om) = build(&minus);
                let fd = (tp.value(op).scalar_value() - tm.value(om).scalar_value()) / (2.0 * h);
                let a = grads.wrt(vars[i]).unwrap().data[j];
                assert!((a - fd).abs() < 1e-5, "{i}/{j}: {a} vs {fd}");
            }
        }
    }

    #[test]
    fn nonlinearity_gradients() {
        grad_check(&[vec![0.5, -1.2, 2.0]], |t, v| {
            let a = t.tanh(v[0]);
            let b = t.sigmoid(a);
            let c = t.relu(b);
            let d = t.exp(c);
            t.sum(d)
        });
    }

    #[test]
    fn softmax_gradients() {
        grad_check(&[vec![0.5, -1.2, 2.0, 0.1]], |t, v| {
            let s = t.softmax(v[0]);
            let w = t.row(vec![1.0, -2.0, 0.5, 3.0]);
            let p = t.mul(s, w);
            t.sum(p)
        });
    }

    #[test]
    fn norm_and_sqrt_gradients() {
        grad_check(&[vec![0.5, -1.2, 2.0]], |t, v| t.norm(v[0], 1e-12));
    }

    #[test]
    fn dot_and_div_gradients() {
        grad_check(&[vec![0.5, -1.2, 2.0], vec![1.5, 0.3, -0.7]], |t, v| {
            let d = t.dot(v[0], v[1]);
            let q = t.div(v[0], v[1]);
            let s = t.sum(q);
            t.add(d, s)
        });
    }

    #[test]
    fn concat_gradients() {
        grad_check(&[vec![0.5, -1.2], vec![1.5, 0.3, -0.7]], |t, v| {
            let c = t.concat_cols(&[v[0], v[1]]);
            let sq = t.square(c);
            t.sum(sq)
        });
    }

    #[test]
    fn scalar_broadcast_gradients() {
        grad_check(&[vec![0.5, -1.2, 2.0], vec![0.7]], |t, v| {
            let m = t.mul_scalar(v[0], v[1]);
            let d = t.div_scalar(m, v[1]);
            let a = t.mul_scalar(d, v[1]);
            t.sum(a)
        });
    }

    #[test]
    fn tan_kappa_gradients_flow_to_both_arguments() {
        for kappa in [-0.8, -0.1, 0.3, 1.1] {
            grad_check(&[vec![0.2, -0.3, 0.4], vec![kappa]], |t, v| {
                let y = t.tan_kappa(v[0], v[1]);
                let z = t.atan_kappa(y, v[1]);
                let w = t.square(z);
                t.sum(w)
            });
        }
    }

    #[test]
    fn unused_variable_has_no_gradient() {
        let mut t = Tape::new();
        let x = t.row(vec![1.0, 2.0]);
        let y = t.row(vec![3.0, 4.0]);
        let loss = t.sum(x);
        let grads = t.backward(loss);
        assert!(grads.wrt(y).is_none());
    }

    #[test]
    fn gradient_accumulates_over_shared_subexpressions() {
        let mut t = Tape::new();
        let x = t.row(vec![2.0]);
        let y = t.mul(x, x); // x², dy/dx = 2x = 4
        let loss = t.sum(y);
        let grads = t.backward(loss);
        assert!((grads.wrt(x).unwrap().data[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn backward_requires_scalar_loss() {
        let mut t = Tape::new();
        let x = t.row(vec![1.0, 2.0]);
        let y = t.scale(x, 2.0);
        t.backward(y);
    }
}
