//! Gradient-based optimizers for GRAPE.
//!
//! The paper's GRAPE tool offers "ADAM, BFGS, L-BFGS-B, and SLSQP" and the
//! authors "choose BFGS" (§IV-D). We provide Adam, momentum gradient
//! descent, and L-BFGS with projected bounds (the `-B` part) — the
//! limited-memory form is what any modern BFGS implementation runs on
//! problems with hundreds of parameters.
//!
//! # Two-phase objectives
//!
//! An [`Objective`] is evaluated in two phases: [`Objective::cost`] at a
//! point, then — only if the optimizer asks — [`Objective::gradient`] at
//! that same point. Adam and momentum descent read both phases on every
//! step. L-BFGS's strong-Wolfe line search rejects most trial points on
//! their cost alone (sufficient decrease fails, or in the zoom phase the
//! trial does not improve on the bracket's low end), and such a trial
//! only narrows the bracket. So the line search requests the gradient of
//! a trial only when it passes that test: the only branch that reads
//! φ'(α) or can return the point. On GRAPE's spectral path the gradient
//! phase (backward chain plus the Daleckii–Krein loop) is most of an
//! evaluation, and on the compile workloads about 84 % of trials never
//! need it. Skipping it
//! changes no number: the trial sequence is decided by costs and by the
//! gradients of the points that pass, exactly as before.

/// Stopping criteria shared by all optimizers.
#[derive(Debug, Clone)]
pub struct StopCriteria {
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Stop as soon as the cost drops to this value (GRAPE's fidelity
    /// target, `1e-4` in the paper).
    pub target_cost: f64,
    /// Stop when the gradient ∞-norm falls below this (stationary point).
    pub grad_tol: f64,
    /// Give up after this many iterations without relative improvement of
    /// at least [`StopCriteria::min_rel_improvement`] (0 disables). This
    /// is what keeps infeasible latency probes cheap: a pulse that cannot
    /// reach the target plateaus long before `max_iters`.
    pub patience: usize,
    /// Relative cost improvement that counts as progress for the
    /// stagnation check.
    pub min_rel_improvement: f64,
}

impl Default for StopCriteria {
    fn default() -> Self {
        Self {
            max_iters: 300,
            target_cost: 1e-4,
            grad_tol: 1e-10,
            patience: 30,
            min_rel_improvement: 3e-3,
        }
    }
}

/// Tracks the stagnation rule of [`StopCriteria`].
#[derive(Debug, Clone)]
struct StagnationGuard {
    patience: usize,
    min_rel: f64,
    reference_cost: f64,
    since_improvement: usize,
}

impl StagnationGuard {
    fn new(stop: &StopCriteria, initial_cost: f64) -> Self {
        Self {
            patience: stop.patience,
            min_rel: stop.min_rel_improvement,
            reference_cost: initial_cost,
            since_improvement: 0,
        }
    }

    /// Feeds the cost after an iteration; returns `true` when stalled.
    fn stalled(&mut self, cost: f64) -> bool {
        if self.patience == 0 {
            return false;
        }
        if cost < self.reference_cost * (1.0 - self.min_rel) {
            self.reference_cost = cost;
            self.since_improvement = 0;
            false
        } else {
            self.since_improvement += 1;
            self.since_improvement >= self.patience
        }
    }
}

/// Result of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Cost at `x`.
    pub cost: f64,
    /// Iterations performed (accepted steps).
    pub iterations: usize,
    /// Whether `target_cost` was reached.
    pub converged: bool,
    /// Cost recorded after every iteration.
    pub history: Vec<f64>,
}

/// A differentiable objective, evaluated in two phases (see the module
/// docs).
///
/// [`cost`](Objective::cost) evaluates the cost at `x` and makes `x` the
/// *current point*; [`gradient`](Objective::gradient) returns the
/// gradient at the current point. The optimizers of this module call
/// `gradient` only immediately after a `cost`, at most once per `cost`,
/// and never before the first `cost`.
pub trait Objective {
    /// Cost at `x`; `x` becomes the point the next
    /// [`gradient`](Objective::gradient) differentiates.
    fn cost(&mut self, x: &[f64]) -> f64;

    /// Gradient at the point of the last [`cost`](Objective::cost) call.
    fn gradient(&mut self) -> Vec<f64>;
}

/// [`Objective`] over a closure that computes `(cost, gradient)`
/// together: `cost` runs the closure and keeps the gradient for
/// `gradient` to hand out. For objectives whose gradient is cheap next
/// to the cost, or comes out of the same computation.
#[derive(Debug, Clone)]
pub struct Eager<F> {
    f: F,
    grad: Vec<f64>,
}

impl<F: FnMut(&[f64]) -> (f64, Vec<f64>)> Eager<F> {
    /// Wraps `f`.
    pub fn new(f: F) -> Self {
        Self {
            f,
            grad: Vec::new(),
        }
    }
}

impl<F: FnMut(&[f64]) -> (f64, Vec<f64>)> Objective for Eager<F> {
    fn cost(&mut self, x: &[f64]) -> f64 {
        let (cost, grad) = (self.f)(x);
        self.grad = grad;
        cost
    }

    fn gradient(&mut self) -> Vec<f64> {
        self.grad.clone()
    }
}

/// Optional projection onto the feasible box (amplitude bounds).
pub type Projection<'a> = dyn Fn(&mut [f64]) + 'a;

/// A first-order minimizer.
pub trait Optimizer {
    /// Minimizes `f` starting from `x0`, projecting iterates through
    /// `project` when provided.
    ///
    /// `f` is driven through its two phases: every evaluated point gets a
    /// [`cost`](Objective::cost), and a [`gradient`](Objective::gradient)
    /// follows only when the optimizer reads it — at the start point,
    /// after every Adam/momentum step, and in L-BFGS only for line-search
    /// trials that pass sufficient decrease.
    fn minimize(
        &self,
        f: &mut dyn Objective,
        project: Option<&Projection<'_>>,
        x0: Vec<f64>,
        stop: &StopCriteria,
    ) -> OptimResult;

    /// Short identifier for reports.
    fn name(&self) -> &'static str;
}

/// Which optimizer to run (serializable configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Adam with the given learning rate.
    Adam {
        /// Step size.
        lr: f64,
    },
    /// L-BFGS with the given memory.
    Lbfgs {
        /// History length (pairs of (s, y) retained).
        memory: usize,
    },
    /// Plain momentum gradient descent.
    Momentum {
        /// Step size.
        lr: f64,
        /// Momentum factor in `[0, 1)`.
        beta: f64,
    },
}

impl Default for OptimizerKind {
    fn default() -> Self {
        // The paper picks BFGS; L-BFGS(10) is its scalable realization.
        OptimizerKind::Lbfgs { memory: 10 }
    }
}

impl OptimizerKind {
    /// Instantiates the optimizer.
    pub fn build(self) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Adam { lr } => Box::new(Adam { lr }),
            OptimizerKind::Lbfgs { memory } => Box::new(Lbfgs { memory }),
            OptimizerKind::Momentum { lr, beta } => Box::new(Momentum { lr, beta }),
        }
    }
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// Adam (Kingma & Ba) with bound projection after each step.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
}

impl Optimizer for Adam {
    fn minimize(
        &self,
        f: &mut dyn Objective,
        project: Option<&Projection<'_>>,
        mut x: Vec<f64>,
        stop: &StopCriteria,
    ) -> OptimResult {
        let (beta1, beta2, eps) = (0.9, 0.999, 1e-8);
        let n = x.len();
        let mut m = vec![0.0; n];
        let mut v = vec![0.0; n];
        let mut history = Vec::new();
        let mut cost = f.cost(&x);
        let mut grad = f.gradient();
        let mut best_x = x.clone();
        let mut best_cost = cost;
        let mut guard = StagnationGuard::new(stop, cost);

        for t in 1..=stop.max_iters {
            if cost <= stop.target_cost || inf_norm(&grad) <= stop.grad_tol {
                return OptimResult {
                    x: best_x,
                    cost: best_cost,
                    iterations: t - 1,
                    converged: best_cost <= stop.target_cost,
                    history,
                };
            }
            for i in 0..n {
                m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
                v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
                let m_hat = m[i] / (1.0 - beta1.powi(t as i32));
                let v_hat = v[i] / (1.0 - beta2.powi(t as i32));
                x[i] -= self.lr * m_hat / (v_hat.sqrt() + eps);
            }
            if let Some(p) = project {
                p(&mut x);
            }
            cost = f.cost(&x);
            grad = f.gradient();
            history.push(cost);
            if cost < best_cost {
                best_cost = cost;
                best_x = x.clone();
            }
            if guard.stalled(best_cost) {
                return OptimResult {
                    x: best_x,
                    cost: best_cost,
                    iterations: t,
                    converged: best_cost <= stop.target_cost,
                    history,
                };
            }
        }
        OptimResult {
            x: best_x,
            cost: best_cost,
            iterations: stop.max_iters,
            converged: best_cost <= stop.target_cost,
            history,
        }
    }

    fn name(&self) -> &'static str {
        "adam"
    }
}

/// Momentum gradient descent with bound projection.
#[derive(Debug, Clone)]
pub struct Momentum {
    /// Learning rate.
    pub lr: f64,
    /// Momentum factor.
    pub beta: f64,
}

impl Optimizer for Momentum {
    fn minimize(
        &self,
        f: &mut dyn Objective,
        project: Option<&Projection<'_>>,
        mut x: Vec<f64>,
        stop: &StopCriteria,
    ) -> OptimResult {
        let n = x.len();
        let mut vel = vec![0.0; n];
        let mut history = Vec::new();
        let mut cost = f.cost(&x);
        let mut grad = f.gradient();
        let mut best_x = x.clone();
        let mut best_cost = cost;
        let mut guard = StagnationGuard::new(stop, cost);

        for t in 1..=stop.max_iters {
            if cost <= stop.target_cost || inf_norm(&grad) <= stop.grad_tol {
                return OptimResult {
                    x: best_x,
                    cost: best_cost,
                    iterations: t - 1,
                    converged: best_cost <= stop.target_cost,
                    history,
                };
            }
            for i in 0..n {
                vel[i] = self.beta * vel[i] - self.lr * grad[i];
                x[i] += vel[i];
            }
            if let Some(p) = project {
                p(&mut x);
            }
            cost = f.cost(&x);
            grad = f.gradient();
            history.push(cost);
            if cost < best_cost {
                best_cost = cost;
                best_x = x.clone();
            }
            if guard.stalled(best_cost) {
                return OptimResult {
                    x: best_x,
                    cost: best_cost,
                    iterations: t,
                    converged: best_cost <= stop.target_cost,
                    history,
                };
            }
        }
        OptimResult {
            x: best_x,
            cost: best_cost,
            iterations: stop.max_iters,
            converged: best_cost <= stop.target_cost,
            history,
        }
    }

    fn name(&self) -> &'static str {
        "momentum"
    }
}

/// L-BFGS with two-loop recursion and a strong-Wolfe line search,
/// projecting onto the bound box at every trial point (projected
/// quasi-Newton). The Wolfe curvature condition guarantees `sᵀy > 0` for
/// accepted interior steps, keeping the inverse-Hessian approximation
/// positive definite; pairs that still fail a relative curvature test
/// (projection-clipped steps) are skipped, and the history is dropped
/// entirely if it goes stale.
#[derive(Debug, Clone)]
pub struct Lbfgs {
    /// Number of curvature pairs retained.
    pub memory: usize,
}

impl Optimizer for Lbfgs {
    fn minimize(
        &self,
        f: &mut dyn Objective,
        project: Option<&Projection<'_>>,
        mut x: Vec<f64>,
        stop: &StopCriteria,
    ) -> OptimResult {
        let mut s_hist: Vec<Vec<f64>> = Vec::new();
        let mut y_hist: Vec<Vec<f64>> = Vec::new();
        let mut rho_hist: Vec<f64> = Vec::new();
        let mut history = Vec::new();
        let mut stale_pairs = 0usize;
        // Per-iteration buffers hoisted out of the loop: the two-loop
        // recursion runs hundreds of times per solve.
        let mut q: Vec<f64> = Vec::new();
        let mut dir: Vec<f64> = Vec::new();
        let mut alphas: Vec<f64> = Vec::new();

        if let Some(p) = project {
            p(&mut x);
        }
        let mut cost = f.cost(&x);
        let mut grad = f.gradient();
        let mut best_x = x.clone();
        let mut best_cost = cost;
        let mut guard = StagnationGuard::new(stop, cost);

        for t in 1..=stop.max_iters {
            if cost <= stop.target_cost || inf_norm(&grad) <= stop.grad_tol {
                return OptimResult {
                    x: best_x,
                    cost: best_cost,
                    iterations: t - 1,
                    converged: best_cost <= stop.target_cost,
                    history,
                };
            }

            // Two-loop recursion for the search direction d = −H·g.
            q.clear();
            q.extend_from_slice(&grad);
            let m = s_hist.len();
            alphas.clear();
            alphas.resize(m, 0.0);
            for i in (0..m).rev() {
                let alpha = rho_hist[i] * dot(&s_hist[i], &q);
                alphas[i] = alpha;
                for (qk, yk) in q.iter_mut().zip(&y_hist[i]) {
                    *qk -= alpha * yk;
                }
            }
            // Initial Hessian scaling γ = sᵀy / yᵀy.
            let gamma = if m > 0 {
                let sy = dot(&s_hist[m - 1], &y_hist[m - 1]);
                let yy = dot(&y_hist[m - 1], &y_hist[m - 1]);
                if yy > 0.0 {
                    sy / yy
                } else {
                    1.0
                }
            } else {
                1.0
            };
            for qk in q.iter_mut() {
                *qk *= gamma;
            }
            for i in 0..m {
                let beta = rho_hist[i] * dot(&y_hist[i], &q);
                for (qk, sk) in q.iter_mut().zip(&s_hist[i]) {
                    *qk += (alphas[i] - beta) * sk;
                }
            }
            dir.clear();
            dir.extend(q.iter().map(|&v| -v));
            // Ensure descent; fall back to steepest descent otherwise.
            if dot(&dir, &grad) >= 0.0 {
                for (d, g) in dir.iter_mut().zip(&grad) {
                    *d = -g;
                }
            }

            let mut attempt = wolfe_line_search(f, project, &x, cost, &grad, &dir);
            if attempt.is_none() && !s_hist.is_empty() {
                // Quasi-Newton direction failed: restart from steepest descent.
                s_hist.clear();
                y_hist.clear();
                rho_hist.clear();
                stale_pairs = 0;
                let sd: Vec<f64> = grad.iter().map(|&g| -g).collect();
                attempt = wolfe_line_search(f, project, &x, cost, &grad, &sd);
            }
            let Some((new_x, new_cost, new_grad)) = attempt else {
                // Stationary (up to the bounds) for our purposes.
                return OptimResult {
                    x: best_x,
                    cost: best_cost,
                    iterations: t,
                    converged: best_cost <= stop.target_cost,
                    history,
                };
            };

            // Update curvature history with a relative-scale test.
            let s: Vec<f64> = new_x.iter().zip(&x).map(|(a, b)| a - b).collect();
            let yv: Vec<f64> = new_grad.iter().zip(&grad).map(|(a, b)| a - b).collect();
            let sy = dot(&s, &yv);
            let scale = dot(&s, &s).sqrt() * dot(&yv, &yv).sqrt();
            if sy > 1e-10 * scale.max(1e-300) {
                s_hist.push(s);
                y_hist.push(yv);
                rho_hist.push(1.0 / sy);
                stale_pairs = 0;
                if s_hist.len() > self.memory {
                    s_hist.remove(0);
                    y_hist.remove(0);
                    rho_hist.remove(0);
                }
            } else {
                stale_pairs += 1;
                if stale_pairs >= 3 {
                    // History no longer reflects local curvature; restart.
                    s_hist.clear();
                    y_hist.clear();
                    rho_hist.clear();
                    stale_pairs = 0;
                }
            }

            x = new_x;
            cost = new_cost;
            grad = new_grad;
            history.push(cost);
            if cost < best_cost {
                best_cost = cost;
                best_x = x.clone();
            }
            if guard.stalled(best_cost) {
                return OptimResult {
                    x: best_x,
                    cost: best_cost,
                    iterations: t,
                    converged: best_cost <= stop.target_cost,
                    history,
                };
            }
        }
        OptimResult {
            x: best_x,
            cost: best_cost,
            iterations: stop.max_iters,
            converged: best_cost <= stop.target_cost,
            history,
        }
    }

    fn name(&self) -> &'static str {
        "lbfgs"
    }
}

/// A line-search point whose gradient was taken.
struct LsPoint {
    alpha: f64,
    x: Vec<f64>,
    cost: f64,
    grad: Vec<f64>,
    /// φ'(α) = ∇f(x_α)·d (with the raw direction; exact in the interior).
    dphi: f64,
}

/// The trial points of one line search: `x + α·d`, projected.
struct Trials<'a, 'p> {
    f: &'a mut dyn Objective,
    project: Option<&'a Projection<'p>>,
    x: &'a [f64],
    dir: &'a [f64],
}

impl Trials<'_, '_> {
    /// Evaluates the cost at step `alpha`; a trial that `rejects` on its
    /// cost is dropped (`None`) without its gradient ever being computed.
    /// Otherwise the gradient is requested right away, at the same point.
    fn eval(&mut self, alpha: f64, rejects: impl FnOnce(f64) -> bool) -> Option<LsPoint> {
        let mut x: Vec<f64> = self
            .x
            .iter()
            .zip(self.dir)
            .map(|(&xi, &di)| xi + alpha * di)
            .collect();
        if let Some(p) = self.project {
            p(&mut x);
        }
        let cost = self.f.cost(&x);
        if rejects(cost) {
            return None;
        }
        let grad = self.f.gradient();
        let dphi = dot(&grad, self.dir);
        Some(LsPoint {
            alpha,
            x,
            cost,
            grad,
            dphi,
        })
    }
}

/// Strong-Wolfe line search (Nocedal & Wright, Algorithm 3.5/3.6) with
/// box projection applied to every trial point. A trial's gradient is
/// requested only when it passes sufficient decrease (bracketing: and
/// does not rise above the previous trial; zoom: and improves on `lo`).
/// Returns `(x⁺, cost⁺, grad⁺)` or `None` when no acceptable step exists.
fn wolfe_line_search(
    f: &mut dyn Objective,
    project: Option<&Projection<'_>>,
    x: &[f64],
    cost0: f64,
    grad0: &[f64],
    dir: &[f64],
) -> Option<(Vec<f64>, f64, Vec<f64>)> {
    let c1 = 1e-4;
    let c2 = 0.9;
    let dphi0 = dot(grad0, dir);
    if dphi0 >= 0.0 {
        return None;
    }
    let mut trials = Trials { f, project, x, dir };
    let accept = |p: LsPoint| Some((p.x, p.cost, p.grad));

    // Bracketing phase.
    let mut prev = LsPoint {
        alpha: 0.0,
        x: x.to_vec(),
        cost: cost0,
        grad: grad0.to_vec(),
        dphi: dphi0,
    };
    let mut alpha = 1.0;
    let alpha_max = 64.0;
    for i in 0..12 {
        let prev_cost = prev.cost;
        let Some(cur) = trials.eval(alpha, |c| {
            c > cost0 + c1 * alpha * dphi0 || (i > 0 && c >= prev_cost)
        }) else {
            return zoom(&mut trials, cost0, dphi0, c1, c2, prev, alpha).and_then(accept);
        };
        if cur.dphi.abs() <= -c2 * dphi0 {
            return accept(cur);
        }
        if cur.dphi >= 0.0 {
            return zoom(&mut trials, cost0, dphi0, c1, c2, cur, prev.alpha).and_then(accept);
        }
        if alpha >= alpha_max {
            // Sufficient decrease held all the way out; take the long step.
            return accept(cur);
        }
        prev = cur;
        alpha = (alpha * 2.0).min(alpha_max);
    }
    accept(prev).filter(|(_, c, _)| *c < cost0)
}

/// Zoom phase: maintains the Wolfe invariants on `[lo, hi]` and bisects.
/// Only `lo` is a full point; the far end `hi` is just a step length.
fn zoom(
    trials: &mut Trials<'_, '_>,
    cost0: f64,
    dphi0: f64,
    c1: f64,
    c2: f64,
    mut lo: LsPoint,
    mut hi: f64,
) -> Option<LsPoint> {
    for _ in 0..15 {
        let alpha = 0.5 * (lo.alpha + hi);
        if (hi - lo.alpha).abs() < 1e-14 {
            break;
        }
        let lo_cost = lo.cost;
        let Some(cur) = trials.eval(alpha, |c| c > cost0 + c1 * alpha * dphi0 || c >= lo_cost)
        else {
            hi = alpha;
            continue;
        };
        if cur.dphi.abs() <= -c2 * dphi0 {
            return Some(cur);
        }
        if cur.dphi * (hi - lo.alpha) >= 0.0 {
            hi = lo.alpha;
        }
        lo = cur;
    }
    // Fall back to the best sufficient-decrease point seen.
    if lo.alpha > 0.0 && lo.cost < cost0 {
        Some(lo)
    } else {
        None
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convex quadratic: f(x) = Σ cᵢ(xᵢ − aᵢ)².
    fn quadratic(c: Vec<f64>, a: Vec<f64>) -> impl FnMut(&[f64]) -> (f64, Vec<f64>) {
        move |x: &[f64]| {
            let cost: f64 = x
                .iter()
                .zip(&c)
                .zip(&a)
                .map(|((&xi, &ci), &ai)| ci * (xi - ai) * (xi - ai))
                .sum();
            let grad = x
                .iter()
                .zip(&c)
                .zip(&a)
                .map(|((&xi, &ci), &ai)| 2.0 * ci * (xi - ai))
                .collect();
            (cost, grad)
        }
    }

    /// Rosenbrock in 2D — a classic non-convex line-search stress test.
    fn rosenbrock(x: &[f64]) -> (f64, Vec<f64>) {
        let (a, b) = (1.0, 100.0);
        let cost = (a - x[0]).powi(2) + b * (x[1] - x[0] * x[0]).powi(2);
        let g0 = -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] * x[0]);
        let g1 = 2.0 * b * (x[1] - x[0] * x[0]);
        (cost, vec![g0, g1])
    }

    #[test]
    fn all_optimizers_solve_quadratic() {
        let stop = StopCriteria {
            max_iters: 2000,
            target_cost: 1e-10,
            grad_tol: 1e-12,
            patience: 0,
            min_rel_improvement: 0.0,
        };
        for kind in [
            OptimizerKind::Adam { lr: 0.1 },
            OptimizerKind::Lbfgs { memory: 10 },
            OptimizerKind::Momentum {
                lr: 0.05,
                beta: 0.9,
            },
        ] {
            let mut f = Eager::new(quadratic(vec![1.0, 4.0, 0.5], vec![1.0, -2.0, 3.0]));
            let opt = kind.build();
            let r = opt.minimize(&mut f, None, vec![0.0; 3], &stop);
            assert!(r.converged, "{} failed: cost {}", opt.name(), r.cost);
            assert!((r.x[0] - 1.0).abs() < 1e-3, "{}", opt.name());
            assert!((r.x[1] + 2.0).abs() < 1e-3, "{}", opt.name());
            assert!((r.x[2] - 3.0).abs() < 1e-3, "{}", opt.name());
        }
    }

    #[test]
    fn lbfgs_beats_adam_on_rosenbrock() {
        let stop = StopCriteria {
            max_iters: 500,
            target_cost: 1e-8,
            grad_tol: 1e-12,
            patience: 0,
            min_rel_improvement: 0.0,
        };
        let lbfgs = Lbfgs { memory: 10 };
        let r1 = lbfgs.minimize(&mut Eager::new(rosenbrock), None, vec![-1.2, 1.0], &stop);
        assert!(r1.converged, "lbfgs cost {}", r1.cost);
        let adam = Adam { lr: 0.01 };
        let r2 = adam.minimize(&mut Eager::new(rosenbrock), None, vec![-1.2, 1.0], &stop);
        // Adam typically needs far more iterations here.
        assert!(r1.iterations < stop.max_iters);
        assert!(r1.cost <= r2.cost + 1e-8);
    }

    #[test]
    fn projection_keeps_iterates_in_box() {
        let stop = StopCriteria {
            max_iters: 200,
            target_cost: 1e-12,
            grad_tol: 1e-14,
            ..StopCriteria::default()
        };
        // Unconstrained minimum at 5, box at [−1, 1] → solution clamps to 1.
        let project = |x: &mut [f64]| {
            for v in x.iter_mut() {
                *v = v.clamp(-1.0, 1.0);
            }
        };
        for kind in [
            OptimizerKind::Lbfgs { memory: 5 },
            OptimizerKind::Adam { lr: 0.2 },
        ] {
            let mut f = Eager::new(quadratic(vec![1.0], vec![5.0]));
            let r = kind
                .build()
                .minimize(&mut f, Some(&project), vec![0.0], &stop);
            assert!((r.x[0] - 1.0).abs() < 1e-6, "{kind:?} got {}", r.x[0]);
        }
    }

    #[test]
    fn immediate_convergence_reports_zero_iterations() {
        let stop = StopCriteria {
            max_iters: 100,
            target_cost: 1.0,
            grad_tol: 1e-12,
            ..StopCriteria::default()
        };
        let mut f = Eager::new(quadratic(vec![1.0], vec![0.0]));
        let r = Lbfgs { memory: 5 }.minimize(&mut f, None, vec![0.1], &stop);
        assert_eq!(r.iterations, 0);
        assert!(r.converged);
    }

    #[test]
    fn history_is_monotone_for_lbfgs_best_tracking() {
        let stop = StopCriteria {
            max_iters: 50,
            target_cost: 0.0,
            grad_tol: 1e-14,
            ..StopCriteria::default()
        };
        let r = Lbfgs { memory: 10 }.minimize(
            &mut Eager::new(rosenbrock),
            None,
            vec![-1.2, 1.0],
            &stop,
        );
        // Line search guarantees non-increasing cost.
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    /// Wraps a `(cost, gradient)` closure and checks the two-phase
    /// contract as the optimizer drives it.
    struct Contract<F> {
        f: F,
        grad: Vec<f64>,
        /// Whether every gradient point must lie strictly below the
        /// previous one (the line-search contract).
        decreasing: bool,
        /// Cost of the last `cost` call and whether its gradient was taken.
        last: Option<(f64, bool)>,
        /// Cost of the previous point whose gradient was taken.
        reference: f64,
        costs: usize,
        grads: usize,
    }

    fn contract<F>(f: F, decreasing: bool) -> Contract<F> {
        Contract {
            f,
            grad: Vec::new(),
            decreasing,
            last: None,
            reference: f64::INFINITY,
            costs: 0,
            grads: 0,
        }
    }

    impl<F: FnMut(&[f64]) -> (f64, Vec<f64>)> Objective for Contract<F> {
        fn cost(&mut self, x: &[f64]) -> f64 {
            let (cost, grad) = (self.f)(x);
            self.grad = grad;
            self.last = Some((cost, false));
            self.costs += 1;
            cost
        }

        fn gradient(&mut self) -> Vec<f64> {
            let (cost, taken) = self.last.expect("gradient requested before any cost");
            assert!(!taken, "gradient requested twice for one cost");
            if self.grads == 0 {
                assert_eq!(self.costs, 1, "first gradient is not at the start point");
            } else if self.decreasing {
                // Every line-search reference (the iterate a search starts
                // from, or zoom's `lo`) is the previous point whose
                // gradient was taken. A trial that passes sufficient
                // decrease — and, in zoom, improves on `lo` — lies
                // strictly below it.
                assert!(
                    cost < self.reference,
                    "gradient at a rejected trial: {cost} >= {}",
                    self.reference
                );
            }
            self.last = Some((cost, true));
            self.reference = cost;
            self.grads += 1;
            self.grad.clone()
        }
    }

    #[test]
    fn lbfgs_requests_gradients_only_where_the_line_search_reads_them() {
        let stop = StopCriteria {
            max_iters: 500,
            target_cost: 1e-8,
            grad_tol: 1e-12,
            patience: 0,
            min_rel_improvement: 0.0,
        };
        let mut f = contract(rosenbrock, true);
        let r = Lbfgs { memory: 10 }.minimize(&mut f, None, vec![-1.2, 1.0], &stop);
        assert!(r.converged, "cost {}", r.cost);
        // Start point plus at least one gradient per accepted step; the
        // rejected trials never asked for one.
        assert!(
            f.grads > r.iterations,
            "{} grads, {} iterations",
            f.grads,
            r.iterations
        );
        assert!(f.grads < f.costs, "{} grads of {} costs", f.grads, f.costs);

        // Projected quadratic: two coordinates pin at the box, so trials
        // beyond the face clamp to the same cost and are rejected.
        let project = |x: &mut [f64]| {
            for v in x.iter_mut() {
                *v = v.clamp(-1.5, 1.5);
            }
        };
        let stop = StopCriteria {
            max_iters: 200,
            target_cost: 1e-12,
            grad_tol: 1e-14,
            ..StopCriteria::default()
        };
        let mut f = contract(quadratic(vec![1.0, 4.0, 0.5], vec![1.0, -2.0, 3.0]), true);
        let r = Lbfgs { memory: 5 }.minimize(&mut f, Some(&project), vec![0.0; 3], &stop);
        assert!(
            (r.x[0] - 1.0).abs() < 1e-6 && r.x[1] == -1.5 && r.x[2] == 1.5,
            "{:?}",
            r.x
        );
        assert!(f.grads < f.costs, "{} grads of {} costs", f.grads, f.costs);
    }

    #[test]
    fn first_order_steppers_read_every_gradient() {
        let stop = StopCriteria {
            max_iters: 50,
            target_cost: 0.0,
            grad_tol: 1e-14,
            patience: 0,
            min_rel_improvement: 0.0,
        };
        for opt in [
            Box::new(Adam { lr: 0.01 }) as Box<dyn Optimizer>,
            Box::new(Momentum {
                lr: 1e-4,
                beta: 0.9,
            }),
        ] {
            // A first-order step may raise the cost, so only the pairing
            // is checked: one gradient right after every cost.
            let mut f = contract(rosenbrock, false);
            let r = opt.minimize(&mut f, None, vec![-1.2, 1.0], &stop);
            assert_eq!(r.iterations, stop.max_iters);
            assert_eq!(f.grads, f.costs, "{}", opt.name());
        }
    }

    #[test]
    fn default_kind_is_lbfgs() {
        assert_eq!(
            OptimizerKind::default(),
            OptimizerKind::Lbfgs { memory: 10 }
        );
        assert_eq!(OptimizerKind::default().build().name(), "lbfgs");
    }
}
