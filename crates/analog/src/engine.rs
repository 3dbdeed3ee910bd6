//! The MNA assembly and solution engine behind all analyses.
//!
//! Unknown ordering: node voltages (all nodes except ground, in creation
//! order) followed by branch currents (voltage sources, VCVS, inductors,
//! in device-creation order).

use std::collections::HashMap;

use crate::analysis::{
    AcResult, AcSpec, Integration, OpPoint, TranConfig, TransientResult,
};
use crate::complex::Complex;
use crate::device::{fetlim, limvds, pnjlim, DiodeModel, MosPolarity};
use crate::error::SimError;
use crate::linalg::Matrix;
use crate::netlist::{Circuit, DeviceKind, NodeId};

/// Thermal voltage at the SPICE nominal 27 °C (used as fallback).
const VT_NOMINAL: f64 = 0.025852;
/// Junction parallel conductance.
const GMIN: f64 = 1.0e-12;
/// Default shunt conductance from every node to ground (keeps floating
/// nodes solvable; negligible at circuit impedance levels).
const GSHUNT_DEFAULT: f64 = 1.0e-12;
/// Conductance used to force capacitor initial conditions.
const G_FORCE_IC: f64 = 1.0e2;
/// Safety factor on the LTE step estimate.
const LTE_TRTOL: f64 = 7.0;

/// Per-device memory of limited junction voltages between Newton iterations.
#[derive(Debug, Clone, Copy, Default)]
struct NlState {
    v: [f64; 4],
}

/// Per-device dynamic state for transient companion models.
///
/// Capacitor: `(v_prev, i_prev)`. Inductor: `(i_prev, v_prev)`.
#[derive(Debug, Clone, Copy, Default)]
struct DynState {
    a: f64,
    b: f64,
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Dc { time: f64, force_ic: bool, source_scale: f64 },
    Tran { time: f64, dt: f64, trap: bool },
}

impl Mode {
    fn time(&self) -> f64 {
        match self {
            Mode::Dc { time, .. } | Mode::Tran { time, .. } => *time,
        }
    }

    fn source_scale(&self) -> f64 {
        match self {
            Mode::Dc { source_scale, .. } => *source_scale,
            Mode::Tran { .. } => 1.0,
        }
    }
}

pub(crate) struct Engine<'a> {
    ckt: &'a Circuit,
    /// Unknown count for node voltages (nodes minus ground).
    nv: usize,
    /// Total unknowns.
    n: usize,
    /// Inductance rows: device index → [(branch unknown, inductance)].
    /// The diagonal (self) entry comes first.
    ind_rows: HashMap<usize, Vec<(usize, f64)>>,
    /// Device index owning each branch (indexed by branch number).
    branch_owner: Vec<usize>,
    nl_state: Vec<NlState>,
    dyn_state: Vec<DynState>,
    gshunt: f64,
    /// Thermal voltage kT/q at the circuit's temperature.
    vt: f64,
    /// Set during assembly when junction limiting materially altered a
    /// device voltage; convergence is deferred until limiting settles.
    limiting_active: bool,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(ckt: &'a Circuit) -> Result<Self, SimError> {
        let nv = ckt.node_count() - 1;
        let n = nv + ckt.num_branches;
        if n == 0 {
            return Err(SimError::InvalidCircuit("circuit has no unknowns".into()));
        }
        // Pre-resolve the inductance matrix rows including mutual terms.
        let mut ind_rows: HashMap<usize, Vec<(usize, f64)>> = HashMap::new();
        for (idx, dev) in ckt.devices.iter().enumerate() {
            if let DeviceKind::Inductor { henries, .. } = dev.kind {
                let br = nv + dev.branch.expect("inductor has a branch");
                ind_rows.insert(idx, vec![(br, henries)]);
            }
        }
        for cpl in &ckt.couplings {
            let l_of = |i: usize| -> f64 {
                match ckt.devices[i].kind {
                    DeviceKind::Inductor { henries, .. } => henries,
                    _ => unreachable!("couple() validated inductors"),
                }
            };
            let m = cpl.k * (l_of(cpl.l1.0) * l_of(cpl.l2.0)).sqrt();
            let br1 = nv + self_branch(ckt, cpl.l1.0);
            let br2 = nv + self_branch(ckt, cpl.l2.0);
            ind_rows.get_mut(&cpl.l1.0).expect("inductor row").push((br2, m));
            ind_rows.get_mut(&cpl.l2.0).expect("inductor row").push((br1, m));
        }
        let nl_state = vec![NlState::default(); ckt.devices.len()];
        let dyn_state = vec![DynState::default(); ckt.devices.len()];
        let mut branch_owner = vec![usize::MAX; ckt.num_branches];
        for (idx, dev) in ckt.devices.iter().enumerate() {
            if let Some(br) = dev.branch {
                branch_owner[br] = idx;
            }
        }
        let vt = VT_NOMINAL / 300.15 * (ckt.temperature + 273.15);
        Ok(Engine { ckt, nv, n, ind_rows, branch_owner, nl_state, dyn_state, gshunt: GSHUNT_DEFAULT, vt, limiting_active: false })
    }

    /// Index of a node in the unknown vector; `None` for ground.
    fn ni(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.0 - 1)
        }
    }

    fn volt(x: &[f64], idx: Option<usize>) -> f64 {
        idx.map(|i| x[i]).unwrap_or_default()
    }

    fn stamp_g(mat: &mut Matrix<f64>, a: Option<usize>, b: Option<usize>, g: f64) {
        if let Some(a) = a {
            mat.add(a, a, g);
        }
        if let Some(b) = b {
            mat.add(b, b, g);
        }
        if let (Some(a), Some(b)) = (a, b) {
            mat.add(a, b, -g);
            mat.add(b, a, -g);
        }
    }

    /// Adds a constant current `i` flowing out of `a` into `b` through a
    /// device: contributes `−i` to RHS row `a` and `+i` to row `b`.
    fn stamp_i_out(rhs: &mut [f64], a: Option<usize>, b: Option<usize>, i: f64) {
        if let Some(a) = a {
            rhs[a] -= i;
        }
        if let Some(b) = b {
            rhs[b] += i;
        }
    }

    /// One full MNA assembly at iterate `x`.
    fn stamp_all(&mut self, x: &[f64], mode: &Mode, mat: &mut Matrix<f64>, rhs: &mut [f64]) {
        mat.clear();
        rhs.fill(0.0);
        self.limiting_active = false;
        // Global shunt keeps otherwise-floating nodes pinned.
        for i in 0..self.nv {
            mat.add(i, i, self.gshunt);
        }
        let time = mode.time();
        let scale = mode.source_scale();
        let ckt = self.ckt;
        for di in 0..ckt.devices.len() {
            let dev = &ckt.devices[di];
            let nodes = &dev.nodes;
            match &dev.kind {
                DeviceKind::Resistor { ohms } => {
                    let (a, b) = (self.ni(nodes[0]), self.ni(nodes[1]));
                    Self::stamp_g(mat, a, b, 1.0 / ohms);
                }
                DeviceKind::Capacitor { farads, ic } => {
                    let (a, b) = (self.ni(nodes[0]), self.ni(nodes[1]));
                    match mode {
                        Mode::Dc { force_ic, .. } => {
                            if *force_ic {
                                if let Some(ic) = ic {
                                    Self::stamp_g(mat, a, b, G_FORCE_IC);
                                    // Equivalent source driving v(a,b) → ic.
                                    Self::stamp_i_out(rhs, a, b, -G_FORCE_IC * ic);
                                }
                            }
                            // Otherwise open: no stamp (gshunt pins nodes).
                        }
                        Mode::Tran { dt, trap, .. } => {
                            let st = self.dyn_state[di];
                            let (geq, ieq) = if *trap {
                                let g = 2.0 * farads / dt;
                                (g, g * st.a + st.b)
                            } else {
                                let g = farads / dt;
                                (g, g * st.a)
                            };
                            Self::stamp_g(mat, a, b, geq);
                            // Device current out of a: geq·v(a,b) − ieq.
                            Self::stamp_i_out(rhs, a, b, -ieq);
                        }
                    }
                }
                DeviceKind::Inductor { ic, .. } => {
                    let (a, b) = (self.ni(nodes[0]), self.ni(nodes[1]));
                    let br = self.nv + dev.branch.expect("inductor branch");
                    // KCL coupling: branch current leaves a, enters b.
                    if let Some(a) = a {
                        mat.add(a, br, 1.0);
                    }
                    if let Some(b) = b {
                        mat.add(b, br, -1.0);
                    }
                    match mode {
                        Mode::Dc { force_ic, .. } => {
                            if *force_ic && ic.is_some() {
                                mat.add(br, br, 1.0);
                                rhs[br] += ic.expect("checked");
                            } else {
                                // Short: v(a) − v(b) = 0.
                                if let Some(a) = a {
                                    mat.add(br, a, 1.0);
                                }
                                if let Some(b) = b {
                                    mat.add(br, b, -1.0);
                                }
                                // Tiny series resistance regularizes loops
                                // of shorted inductors with sources.
                                mat.add(br, br, -1.0e-9);
                            }
                        }
                        Mode::Tran { dt, trap, .. } => {
                            if let Some(a) = a {
                                mat.add(br, a, 1.0);
                            }
                            if let Some(b) = b {
                                mat.add(br, b, -1.0);
                            }
                            let st = self.dyn_state[di];
                            let factor = if *trap { 2.0 / dt } else { 1.0 / dt };
                            let row = self.ind_rows.get(&di).expect("inductor row");
                            let mut rhs_val = if *trap { -st.b } else { 0.0 };
                            for &(col, l) in row {
                                mat.add(br, col, -factor * l);
                                // Previous current of the inductor that owns
                                // `col` as its unknown.
                                let ik_prev = self.dyn_state[self.branch_owner[col - self.nv]].a;
                                rhs_val -= factor * l * ik_prev;
                            }
                            rhs[br] += rhs_val;
                        }
                    }
                }
                DeviceKind::VSource { wave, .. } => {
                    let (p, n) = (self.ni(nodes[0]), self.ni(nodes[1]));
                    let br = self.nv + dev.branch.expect("vsource branch");
                    if let Some(p) = p {
                        mat.add(p, br, 1.0);
                        mat.add(br, p, 1.0);
                    }
                    if let Some(n) = n {
                        mat.add(n, br, -1.0);
                        mat.add(br, n, -1.0);
                    }
                    rhs[br] += wave.eval(time) * scale;
                }
                DeviceKind::ISource { wave, .. } => {
                    let (p, n) = (self.ni(nodes[0]), self.ni(nodes[1]));
                    let j = wave.eval(time) * scale;
                    // Injects j into p, draws j from n.
                    Self::stamp_i_out(rhs, p, n, -j);
                }
                DeviceKind::Vcvs { gain } => {
                    let (p, n, cp, cn) =
                        (self.ni(nodes[0]), self.ni(nodes[1]), self.ni(nodes[2]), self.ni(nodes[3]));
                    let br = self.nv + dev.branch.expect("vcvs branch");
                    if let Some(p) = p {
                        mat.add(p, br, 1.0);
                        mat.add(br, p, 1.0);
                    }
                    if let Some(n) = n {
                        mat.add(n, br, -1.0);
                        mat.add(br, n, -1.0);
                    }
                    if let Some(cp) = cp {
                        mat.add(br, cp, -gain);
                    }
                    if let Some(cn) = cn {
                        mat.add(br, cn, *gain);
                    }
                }
                DeviceKind::Vccs { gm } => {
                    let (p, n, cp, cn) =
                        (self.ni(nodes[0]), self.ni(nodes[1]), self.ni(nodes[2]), self.ni(nodes[3]));
                    for (row, sign) in [(p, 1.0), (n, -1.0)] {
                        if let Some(r) = row {
                            if let Some(cp) = cp {
                                mat.add(r, cp, gm * sign);
                            }
                            if let Some(cn) = cn {
                                mat.add(r, cn, -gm * sign);
                            }
                        }
                    }
                }
                DeviceKind::Diode { model } => {
                    let (a, k) = (self.ni(nodes[0]), self.ni(nodes[1]));
                    let vd_cand = Self::volt(x, a) - Self::volt(x, k);
                    let vd_old = self.nl_state[di].v[0];
                    let vcrit = model.vcrit(self.vt);
                    let vd = pnjlim(vd_cand, vd_old, model.n * self.vt, vcrit);
                    if (vd - vd_cand).abs() > 1.0e-6 + 1.0e-3 * vd_cand.abs() {
                        self.limiting_active = true;
                    }
                    self.nl_state[di].v[0] = vd;
                    let (id, gd) = model.eval(vd, self.vt);
                    let g = gd + GMIN;
                    let ieq = id - g * vd;
                    Self::stamp_g(mat, a, k, g);
                    Self::stamp_i_out(rhs, a, k, ieq);
                }
                DeviceKind::Mosfet { model } => {
                    let model = *model;
                    self.stamp_mosfet(di, nodes, x, mat, rhs, &model);
                }
                DeviceKind::Switch { model } => {
                    let (p, n, cp, cn) =
                        (self.ni(nodes[0]), self.ni(nodes[1]), self.ni(nodes[2]), self.ni(nodes[3]));
                    let vc = Self::volt(x, cp) - Self::volt(x, cn);
                    let (g, _) = model.conductance(vc);
                    Self::stamp_g(mat, p, n, g);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn stamp_mosfet(
        &mut self,
        di: usize,
        nodes: &[NodeId],
        x: &[f64],
        mat: &mut Matrix<f64>,
        rhs: &mut [f64],
        model: &crate::device::MosModel,
    ) {
        let (nd, ng, ns, nb) =
            (self.ni(nodes[0]), self.ni(nodes[1]), self.ni(nodes[2]), self.ni(nodes[3]));
        let sp = model.sign();
        let (vd, vg, vs, vb) = (
            sp * Self::volt(x, nd),
            sp * Self::volt(x, ng),
            sp * Self::volt(x, ns),
            sp * Self::volt(x, nb),
        );
        // Orient so the effective drain is the higher (normalized) terminal.
        let reversed = vd < vs;
        let (ed, es) = if reversed { (ns, nd) } else { (nd, ns) };
        let (ved, ves) = if reversed { (vs, vd) } else { (vd, vs) };
        let vgs_cand = vg - ves;
        let vds_cand = ved - ves;
        let vbs_cand = vb - ves;
        let vto_n = model.vto * sp;
        let st = &mut self.nl_state[di];
        let vgs = fetlim(vgs_cand, st.v[0], vto_n);
        let vds = limvds(vds_cand, st.v[1]).max(0.0);
        let vbs = vbs_cand.min(0.3); // forward body bias capped; diodes model the rest
        let mut limited = (vgs - vgs_cand).abs() > 1.0e-6 + 1.0e-3 * vgs_cand.abs()
            || (vds - vds_cand).abs() > 1.0e-6 + 1.0e-3 * vds_cand.abs();
        st.v[0] = vgs;
        st.v[1] = vds;
        let (id, gm, gds0, gmbs) = model.eval_normalized(vgs, vds, vbs);
        let gds = gds0 + GMIN;
        let ieq_n = id - gm * vgs - gds * vds - gmbs * vbs;
        let ieq = sp * ieq_n;
        // Channel stamps (conductances are polarity- and orientation-safe).
        for (row, sign) in [(ed, 1.0), (es, -1.0)] {
            if let Some(r) = row {
                if let Some(g) = ng {
                    mat.add(r, g, sign * gm);
                }
                if let Some(d) = ed {
                    mat.add(r, d, sign * gds);
                }
                if let Some(b) = nb {
                    mat.add(r, b, sign * gmbs);
                }
                if let Some(s) = es {
                    mat.add(r, s, -sign * (gm + gds + gmbs));
                }
            }
        }
        Self::stamp_i_out(rhs, ed, es, ieq);
        // Bulk junction diodes: bulk→drain and bulk→source for NMOS,
        // reversed for PMOS.
        if model.junction_is > 0.0 {
            let jm = DiodeModel { is: model.junction_is, n: 1.0 };
            let vcrit = jm.vcrit(self.vt);
            for (slot, other) in [(2usize, nd), (3usize, ns)] {
                let (an, ca) = match model.polarity {
                    MosPolarity::Nmos => (nb, other),
                    MosPolarity::Pmos => (other, nb),
                };
                let vj_cand = Self::volt(x, an) - Self::volt(x, ca);
                let vj = pnjlim(vj_cand, self.nl_state[di].v[slot], self.vt, vcrit);
                if (vj - vj_cand).abs() > 1.0e-6 + 1.0e-3 * vj_cand.abs() {
                    limited = true;
                }
                self.nl_state[di].v[slot] = vj;
                let (ij, gj) = jm.eval(vj, self.vt);
                let g = gj + GMIN;
                let ieq_j = ij - g * vj;
                Self::stamp_g(mat, an, ca, g);
                Self::stamp_i_out(rhs, an, ca, ieq_j);
            }
        }
        if limited {
            self.limiting_active = true;
        }
    }

    /// Newton–Raphson at a fixed mode. Returns the solution and the number
    /// of iterations used.
    fn newton(
        &mut self,
        x0: &[f64],
        mode: &Mode,
        max_iter: usize,
        reltol: f64,
        vabstol: f64,
        iabstol: f64,
    ) -> Result<(Vec<f64>, usize), SimError> {
        let mut mat = Matrix::zeros(self.n);
        let mut rhs = vec![0.0; self.n];
        let mut x = x0.to_vec();
        for iter in 1..=max_iter {
            self.stamp_all(&x, mode, &mut mat, &mut rhs);
            let x_new = mat.solve(&rhs)?;
            let mut converged = iter > 1 && !self.limiting_active;
            if converged {
                for i in 0..self.n {
                    let abstol = if i < self.nv { vabstol } else { iabstol };
                    let tol = reltol * x_new[i].abs().max(x[i].abs()) + abstol;
                    if (x_new[i] - x[i]).abs() > tol {
                        converged = false;
                        break;
                    }
                }
            }
            x = x_new;
            if converged {
                return Ok((x, iter));
            }
        }
        Err(SimError::NoConvergence {
            analysis: match mode {
                Mode::Dc { .. } => "dc",
                Mode::Tran { .. } => "transient",
            },
            time: match mode {
                Mode::Tran { time, .. } => Some(*time),
                Mode::Dc { .. } => None,
            },
            iterations: max_iter,
        })
    }

    /// DC solve with g-shunt stepping and source stepping as fallbacks.
    fn dc_solve(&mut self, force_ic: bool, time: f64) -> Result<Vec<f64>, SimError> {
        let x0 = vec![0.0; self.n];
        let mode = Mode::Dc { time, force_ic, source_scale: 1.0 };
        self.nl_state.fill(NlState::default());
        match self.newton(&x0, &mode, 200, 1e-3, 1e-6, 1e-9) {
            Ok((x, _)) => return Ok(x),
            Err(SimError::SingularMatrix { unknown }) => {
                return Err(SimError::SingularMatrix { unknown })
            }
            Err(_) => {}
        }
        // g-shunt stepping: start heavily damped, relax.
        let mut x = vec![0.0; self.n];
        self.nl_state.fill(NlState::default());
        let mut ok = true;
        for g in [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, GSHUNT_DEFAULT] {
            self.gshunt = g;
            match self.newton(&x, &mode, 200, 1e-3, 1e-6, 1e-9) {
                Ok((xn, _)) => x = xn,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        self.gshunt = GSHUNT_DEFAULT;
        if ok {
            return Ok(x);
        }
        // Source stepping.
        let mut x = vec![0.0; self.n];
        self.nl_state.fill(NlState::default());
        let steps = 20;
        for s in 1..=steps {
            let scale = s as f64 / steps as f64;
            let mode = Mode::Dc { time, force_ic, source_scale: scale };
            let (xn, _) = self.newton(&x, &mode, 200, 1e-3, 1e-6, 1e-9)?;
            x = xn;
        }
        Ok(x)
    }

    fn op_point_from(&self, x: &[f64]) -> OpPoint {
        let mut volts = HashMap::new();
        for (i, name) in self.ckt.node_names().enumerate() {
            volts.insert(name.to_string(), x[i]);
        }
        let mut currents = HashMap::new();
        for dev in &self.ckt.devices {
            if let Some(br) = dev.branch {
                currents.insert(dev.name.clone(), x[self.nv + br]);
            }
        }
        OpPoint::new(volts, currents)
    }

    pub(crate) fn dc_operating_point(&mut self) -> Result<OpPoint, SimError> {
        let x = self.dc_solve(false, 0.0)?;
        Ok(self.op_point_from(&x))
    }

    /// Updates capacitor/inductor companion states after an accepted step.
    fn update_dyn_state(&mut self, x: &[f64], dt: f64, trap: bool) {
        for di in 0..self.ckt.devices.len() {
            let dev = &self.ckt.devices[di];
            match &dev.kind {
                DeviceKind::Capacitor { farads, .. } => {
                    let a = self.ni(dev.nodes[0]);
                    let b = self.ni(dev.nodes[1]);
                    let v = Self::volt(x, a) - Self::volt(x, b);
                    let st = self.dyn_state[di];
                    let i = if trap {
                        let g = 2.0 * farads / dt;
                        g * (v - st.a) - st.b
                    } else {
                        farads / dt * (v - st.a)
                    };
                    self.dyn_state[di] = DynState { a: v, b: i };
                }
                DeviceKind::Inductor { .. } => {
                    let a = self.ni(dev.nodes[0]);
                    let b = self.ni(dev.nodes[1]);
                    let br = self.nv + dev.branch.expect("inductor branch");
                    let v = Self::volt(x, a) - Self::volt(x, b);
                    self.dyn_state[di] = DynState { a: x[br], b: v };
                }
                _ => {}
            }
        }
    }

    /// Initializes companion states from the DC starting point.
    fn init_dyn_state(&mut self, x: &[f64]) {
        for di in 0..self.ckt.devices.len() {
            let dev = &self.ckt.devices[di];
            match &dev.kind {
                DeviceKind::Capacitor { ic, .. } => {
                    let a = self.ni(dev.nodes[0]);
                    let b = self.ni(dev.nodes[1]);
                    let v = ic.unwrap_or(Self::volt(x, a) - Self::volt(x, b));
                    self.dyn_state[di] = DynState { a: v, b: 0.0 };
                }
                DeviceKind::Inductor { ic, .. } => {
                    let br = self.nv + dev.branch.expect("inductor branch");
                    let i = ic.unwrap_or(x[br]);
                    self.dyn_state[di] = DynState { a: i, b: 0.0 };
                }
                _ => {}
            }
        }
    }

    fn collect_breakpoints(&self, t_stop: f64) -> Vec<f64> {
        let mut bps: Vec<f64> = Vec::new();
        for dev in &self.ckt.devices {
            if let DeviceKind::VSource { wave, .. } | DeviceKind::ISource { wave, .. } = &dev.kind {
                bps.extend(wave.breakpoints(t_stop));
            }
        }
        bps.push(t_stop);
        bps.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        bps.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
        bps
    }

    pub(crate) fn transient(&mut self, spec: &TranConfig) -> Result<TransientResult, SimError> {
        let t_stop = spec.t_stop;
        let max_step = spec.max_step.unwrap_or(t_stop / 50.0);
        if max_step <= 0.0 {
            return Err(SimError::InvalidParameter {
                name: "max_step",
                reason: "must be positive".into(),
            });
        }
        let trap = spec.method == Integration::Trapezoidal;

        // Result signal set: all node voltages (+ branch currents).
        let mut names: Vec<String> = self.ckt.node_names().map(str::to_string).collect();
        if spec.record_currents {
            for dev in &self.ckt.devices {
                if dev.branch.is_some() {
                    names.push(format!("I({})", dev.name));
                }
            }
        }
        let mut result = TransientResult::new(names);
        let record = |result: &mut TransientResult, t: f64, x: &[f64], nv: usize, ckt: &Circuit| {
            let mut row: Vec<f64> = x[..nv].to_vec();
            if spec.record_currents {
                for dev in &ckt.devices {
                    if let Some(br) = dev.branch {
                        row.push(x[nv + br]);
                    }
                }
            }
            result.push_sample(t, &row);
        };

        // Initial point: DC at t = 0 with initial conditions enforced.
        let mut x = self.dc_solve(true, 0.0)?;
        self.init_dyn_state(&x);
        record(&mut result, 0.0, &x, self.nv, self.ckt);

        let bps = self.collect_breakpoints(t_stop);
        let mut bp_iter = bps.iter().copied().peekable();

        let mut t = 0.0f64;
        let mut dt = (max_step / 10.0).min(t_stop / 1000.0).max(spec.min_step * 10.0);
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        let mut newton_total = 0usize;
        // History for predictor/LTE: (t, x) of the last three accepted points.
        let mut history: Vec<(f64, Vec<f64>)> = vec![(0.0, x.clone())];
        let mut first_steps_be = 2usize; // start on backward Euler

        loop {
            let remaining = t_stop - t;
            // Numerically at the end: the last accepted point may sit a
            // few ulps short of t_stop after thousands of breakpoints.
            if remaining <= t_stop * 1.0e-12 {
                break;
            }
            // Advance past consumed breakpoints.
            while let Some(&bp) = bp_iter.peek() {
                if bp <= t + 1e-15 * t_stop.max(1.0) {
                    bp_iter.next();
                } else {
                    break;
                }
            }
            let mut dt_try = dt.min(max_step).min(remaining);
            let mut hit_bp = false;
            if let Some(&bp) = bp_iter.peek() {
                if t + dt_try >= bp - 1e-15 {
                    dt_try = bp - t;
                    hit_bp = true;
                }
            }
            if dt_try < spec.min_step {
                if remaining < spec.min_step.max(t_stop * 1.0e-12) * 100.0 {
                    break; // within rounding of the stop time
                }
                return Err(SimError::TimestepTooSmall { time: t, step: dt_try });
            }
            let use_trap = trap && first_steps_be == 0;
            let mode = Mode::Tran { time: t + dt_try, dt: dt_try, trap: use_trap };

            // Predictor: linear extrapolation of the last two points.
            let x_guess = if history.len() >= 2 {
                let (t1, x1) = &history[history.len() - 1];
                let (t0, x0) = &history[history.len() - 2];
                let alpha = dt_try / (t1 - t0);
                x1.iter().zip(x0).map(|(a, b)| a + alpha * (a - b)).collect()
            } else {
                x.clone()
            };

            match self.newton(&x_guess, &mode, spec.max_newton, spec.reltol, spec.vabstol, spec.iabstol)
            {
                Err(SimError::SingularMatrix { unknown }) => {
                    return Err(SimError::SingularMatrix { unknown });
                }
                Err(_) => {
                    rejected += 1;
                    newton_total += spec.max_newton;
                    dt = dt_try * 0.25;
                    if dt < spec.min_step {
                        return Err(SimError::TimestepTooSmall { time: t, step: dt });
                    }
                    continue;
                }
                Ok((x_new, iters)) => {
                    newton_total += iters;
                    // LTE control (needs 3 accepted history points).
                    if spec.lte_control && history.len() >= 3 && !hit_bp {
                        let err_ratio = self.lte_ratio(&history, t + dt_try, &x_new, spec);
                        if err_ratio > LTE_TRTOL * 4.0 && dt_try > spec.min_step * 16.0 {
                            rejected += 1;
                            dt = dt_try * 0.5;
                            continue;
                        }
                        // Step-size suggestion from the error ratio.
                        let grow = (LTE_TRTOL / err_ratio.max(1e-6)).cbrt().clamp(0.3, 2.0);
                        dt = dt_try * grow;
                    } else {
                        // Iteration-count heuristic.
                        dt = if iters <= 10 { dt_try * 1.5 } else if iters > 30 { dt_try * 0.5 } else { dt_try };
                    }
                    t += dt_try;
                    self.update_dyn_state(&x_new, dt_try, use_trap);
                    x = x_new;
                    record(&mut result, t, &x, self.nv, self.ckt);
                    history.push((t, x.clone()));
                    if history.len() > 4 {
                        history.remove(0);
                    }
                    accepted += 1;
                    first_steps_be = first_steps_be.saturating_sub(1);
                    if hit_bp {
                        // Damp trapezoidal ringing across the discontinuity.
                        first_steps_be = first_steps_be.max(1);
                        dt = dt.min(max_step / 10.0).max(spec.min_step * 10.0);
                        history.clear();
                        history.push((t, x.clone()));
                    }
                }
            }
        }
        result.record_stats(accepted, rejected, newton_total);
        Ok(result)
    }

    /// Local truncation error of the candidate point relative to the
    /// per-unknown tolerance, estimated from third divided differences.
    fn lte_ratio(
        &self,
        history: &[(f64, Vec<f64>)],
        t_new: f64,
        x_new: &[f64],
        spec: &TranConfig,
    ) -> f64 {
        let n = history.len();
        let (t0, x0) = &history[n - 3];
        let (t1, x1) = &history[n - 2];
        let (t2, x2) = &history[n - 1];
        let dt = t_new - t2;
        let mut worst: f64 = 0.0;
        for i in 0..self.n {
            let dd1a = (x_new[i] - x2[i]) / (t_new - t2);
            let dd1b = (x2[i] - x1[i]) / (t2 - t1);
            let dd1c = (x1[i] - x0[i]) / (t1 - t0);
            let dd2a = (dd1a - dd1b) / (t_new - t1);
            let dd2b = (dd1b - dd1c) / (t2 - t0);
            let dd3 = (dd2a - dd2b) / (t_new - t0);
            // Trapezoidal LTE ≈ dt³·x‴/12 = dt³·dd3/2.
            let lte = 0.5 * dt.powi(3) * dd3.abs();
            let abstol = if i < self.nv { spec.vabstol } else { spec.iabstol };
            let tol = spec.reltol * x_new[i].abs() + abstol;
            worst = worst.max(lte / tol);
        }
        worst
    }

    pub(crate) fn ac(&mut self, spec: &AcSpec) -> Result<AcResult, SimError> {
        // Linearize about the DC operating point.
        let xop = self.dc_solve(false, 0.0)?;
        let mut names: Vec<String> = self.ckt.node_names().map(str::to_string).collect();
        for dev in &self.ckt.devices {
            if dev.branch.is_some() {
                names.push(format!("I({})", dev.name));
            }
        }
        let mut result = AcResult::new(spec.frequencies.clone(), names);
        let mut mat: Matrix<Complex> = Matrix::zeros(self.n);
        let mut rhs = vec![Complex::ZERO; self.n];
        for &f in &spec.frequencies {
            let omega = 2.0 * std::f64::consts::PI * f;
            self.stamp_ac(&xop, omega, &mut mat, &mut rhs);
            let x = mat.solve(&rhs)?;
            let mut row: Vec<Complex> = x[..self.nv].to_vec();
            for dev in &self.ckt.devices {
                if let Some(br) = dev.branch {
                    row.push(x[self.nv + br]);
                }
            }
            result.push_point(&row);
        }
        Ok(result)
    }

    fn stamp_ac(&self, xop: &[f64], omega: f64, mat: &mut Matrix<Complex>, rhs: &mut [Complex]) {
        mat.clear();
        rhs.fill(Complex::ZERO);
        let gs = Complex::from_real(self.gshunt);
        for i in 0..self.nv {
            mat.add(i, i, gs);
        }
        let stamp_g = |mat: &mut Matrix<Complex>, a: Option<usize>, b: Option<usize>, g: Complex| {
            if let Some(a) = a {
                mat.add(a, a, g);
            }
            if let Some(b) = b {
                mat.add(b, b, g);
            }
            if let (Some(a), Some(b)) = (a, b) {
                mat.add(a, b, -g);
                mat.add(b, a, -g);
            }
        };
        for di in 0..self.ckt.devices.len() {
            let dev = &self.ckt.devices[di];
            let nodes = &dev.nodes;
            match &dev.kind {
                DeviceKind::Resistor { ohms } => {
                    stamp_g(mat, self.ni(nodes[0]), self.ni(nodes[1]), Complex::from_real(1.0 / ohms));
                }
                DeviceKind::Capacitor { farads, .. } => {
                    stamp_g(mat, self.ni(nodes[0]), self.ni(nodes[1]), Complex::new(0.0, omega * farads));
                }
                DeviceKind::Inductor { .. } => {
                    let (a, b) = (self.ni(nodes[0]), self.ni(nodes[1]));
                    let br = self.nv + dev.branch.expect("inductor branch");
                    if let Some(a) = a {
                        mat.add(a, br, Complex::ONE);
                        mat.add(br, a, Complex::ONE);
                    }
                    if let Some(b) = b {
                        mat.add(b, br, -Complex::ONE);
                        mat.add(br, b, -Complex::ONE);
                    }
                    for &(col, l) in self.ind_rows.get(&di).expect("inductor row") {
                        mat.add(br, col, Complex::new(0.0, -omega * l));
                    }
                }
                DeviceKind::VSource { ac, .. } => {
                    let (p, n) = (self.ni(nodes[0]), self.ni(nodes[1]));
                    let br = self.nv + dev.branch.expect("vsource branch");
                    if let Some(p) = p {
                        mat.add(p, br, Complex::ONE);
                        mat.add(br, p, Complex::ONE);
                    }
                    if let Some(n) = n {
                        mat.add(n, br, -Complex::ONE);
                        mat.add(br, n, -Complex::ONE);
                    }
                    if let Some((m, ph)) = ac {
                        rhs[br] += Complex::from_polar(*m, *ph);
                    }
                }
                DeviceKind::ISource { ac, .. } => {
                    if let Some((m, ph)) = ac {
                        let j = Complex::from_polar(*m, *ph);
                        if let Some(p) = self.ni(nodes[0]) {
                            rhs[p] += j;
                        }
                        if let Some(n) = self.ni(nodes[1]) {
                            rhs[n] -= j;
                        }
                    }
                }
                DeviceKind::Vcvs { gain } => {
                    let (p, n, cp, cn) =
                        (self.ni(nodes[0]), self.ni(nodes[1]), self.ni(nodes[2]), self.ni(nodes[3]));
                    let br = self.nv + dev.branch.expect("vcvs branch");
                    if let Some(p) = p {
                        mat.add(p, br, Complex::ONE);
                        mat.add(br, p, Complex::ONE);
                    }
                    if let Some(n) = n {
                        mat.add(n, br, -Complex::ONE);
                        mat.add(br, n, -Complex::ONE);
                    }
                    if let Some(cp) = cp {
                        mat.add(br, cp, Complex::from_real(-gain));
                    }
                    if let Some(cn) = cn {
                        mat.add(br, cn, Complex::from_real(*gain));
                    }
                }
                DeviceKind::Vccs { gm } => {
                    let (p, n, cp, cn) =
                        (self.ni(nodes[0]), self.ni(nodes[1]), self.ni(nodes[2]), self.ni(nodes[3]));
                    for (row, sign) in [(p, 1.0), (n, -1.0)] {
                        if let Some(r) = row {
                            if let Some(cp) = cp {
                                mat.add(r, cp, Complex::from_real(gm * sign));
                            }
                            if let Some(cn) = cn {
                                mat.add(r, cn, Complex::from_real(-gm * sign));
                            }
                        }
                    }
                }
                DeviceKind::Diode { model } => {
                    let (a, k) = (self.ni(nodes[0]), self.ni(nodes[1]));
                    let vd = Self::volt(xop, a) - Self::volt(xop, k);
                    let (_, gd) = model.eval(vd, self.vt);
                    stamp_g(mat, a, k, Complex::from_real(gd + GMIN));
                }
                DeviceKind::Mosfet { model } => {
                    let (nd, ng, ns, nb) =
                        (self.ni(nodes[0]), self.ni(nodes[1]), self.ni(nodes[2]), self.ni(nodes[3]));
                    let sp = model.sign();
                    let (vd, vg, vs, vb) = (
                        sp * Self::volt(xop, nd),
                        sp * Self::volt(xop, ng),
                        sp * Self::volt(xop, ns),
                        sp * Self::volt(xop, nb),
                    );
                    let reversed = vd < vs;
                    let (ed, es) = if reversed { (ns, nd) } else { (nd, ns) };
                    let (ved, ves) = if reversed { (vs, vd) } else { (vd, vs) };
                    let (id, gm, gds0, gmbs) =
                        model.eval_normalized(vg - ves, (ved - ves).max(0.0), (vb - ves).min(0.3));
                    let _ = id;
                    let gds = gds0 + GMIN;
                    for (row, sign) in [(ed, 1.0), (es, -1.0)] {
                        if let Some(r) = row {
                            if let Some(g) = ng {
                                mat.add(r, g, Complex::from_real(sign * gm));
                            }
                            if let Some(d) = ed {
                                mat.add(r, d, Complex::from_real(sign * gds));
                            }
                            if let Some(b) = nb {
                                mat.add(r, b, Complex::from_real(sign * gmbs));
                            }
                            if let Some(s) = es {
                                mat.add(r, s, Complex::from_real(-sign * (gm + gds + gmbs)));
                            }
                        }
                    }
                }
                DeviceKind::Switch { model } => {
                    let (p, n, cp, cn) =
                        (self.ni(nodes[0]), self.ni(nodes[1]), self.ni(nodes[2]), self.ni(nodes[3]));
                    let vc = Self::volt(xop, cp) - Self::volt(xop, cn);
                    let (g, _) = model.conductance(vc);
                    stamp_g(mat, p, n, Complex::from_real(g));
                }
            }
        }
    }
}

/// Branch index (0-based within branches) of an inductor device.
fn self_branch(ckt: &Circuit, device_idx: usize) -> usize {
    ckt.devices[device_idx].branch.expect("inductor has branch")
}
