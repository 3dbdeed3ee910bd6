//! Circuit description: nodes, devices, and the builder API.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use crate::analysis::{OpPoint, TranConfig, TransientResult};
use crate::compiled::CompiledCircuit;
use crate::device::{DiodeModel, MosModel, SwitchModel};
use crate::engine::Engine;
use crate::error::SimError;
use crate::source::SourceFn;

/// Identifier of a circuit node. [`Circuit::GND`] is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// True for the ground/reference node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a device within its circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub(crate) usize);

/// What a device is, with its electrical parameters.
#[derive(Debug, Clone)]
pub(crate) enum DeviceKind {
    Resistor { ohms: f64 },
    Capacitor { farads: f64, ic: Option<f64> },
    Inductor { henries: f64, ic: Option<f64> },
    VSource { wave: SourceFn, ac: Option<(f64, f64)> },
    ISource { wave: SourceFn, ac: Option<(f64, f64)> },
    Vcvs { gain: f64 },
    Vccs { gm: f64 },
    Diode { model: DiodeModel },
    Mosfet { model: MosModel },
    Switch { model: SwitchModel },
}

#[derive(Debug, Clone)]
pub(crate) struct Device {
    pub name: String,
    pub nodes: Vec<NodeId>,
    pub kind: DeviceKind,
    /// Index of this device's MNA branch-current unknown, if it has one.
    pub branch: Option<usize>,
}

/// Mutual coupling between two inductors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Coupling {
    pub l1: DeviceId,
    pub l2: DeviceId,
    pub k: f64,
}

/// A circuit under construction, and the entry point for all analyses.
///
/// Nodes are created by name with [`Circuit::node`]; ground is
/// [`Circuit::GND`] (also reachable by the names `"0"` and `"gnd"`).
/// Device constructors take unique names, used later to query branch
/// currents and to identify devices in error messages.
///
/// ```
/// use analog::{Circuit, SourceFn};
/// # fn main() -> Result<(), analog::SimError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(3.0));
/// ckt.resistor("R1", a, Circuit::GND, 1.0e3);
/// let op = ckt.compile()?.dc_op()?;
/// assert!((op.voltage("a")? - 3.0).abs() < 1e-9);
/// assert!((op.current("V1")? + 3.0e-3).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    node_names: Vec<String>,
    node_index: HashMap<String, NodeId>,
    pub(crate) devices: Vec<Device>,
    device_index: HashMap<String, DeviceId>,
    pub(crate) couplings: Vec<Coupling>,
    pub(crate) num_branches: usize,
    pub(crate) temperature: f64,
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

impl Circuit {
    /// The ground (reference) node.
    pub const GND: NodeId = NodeId(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut ckt = Circuit {
            node_names: vec!["0".to_string()],
            node_index: HashMap::new(),
            devices: Vec::new(),
            device_index: HashMap::new(),
            couplings: Vec::new(),
            num_branches: 0,
            temperature: 27.0,
        };
        ckt.node_index.insert("0".to_string(), NodeId(0));
        ckt.node_index.insert("gnd".to_string(), NodeId(0));
        ckt
    }

    /// Returns the node with the given name, creating it if necessary.
    /// `"0"` and `"gnd"` always refer to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_index.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_string());
        self.node_index.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_index.get(name).copied()
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// All node names except ground, in creation order.
    pub fn node_names(&self) -> impl Iterator<Item = &str> {
        self.node_names.iter().skip(1).map(String::as_str)
    }

    fn add_device(&mut self, name: &str, nodes: Vec<NodeId>, kind: DeviceKind) -> DeviceId {
        assert!(
            !self.device_index.contains_key(name),
            "duplicate device name `{name}`"
        );
        let needs_branch = matches!(
            kind,
            DeviceKind::Inductor { .. } | DeviceKind::VSource { .. } | DeviceKind::Vcvs { .. }
        );
        let branch = if needs_branch {
            let b = self.num_branches;
            self.num_branches += 1;
            Some(b)
        } else {
            None
        };
        let id = DeviceId(self.devices.len());
        self.devices.push(Device { name: name.to_string(), nodes, kind, branch });
        self.device_index.insert(name.to_string(), id);
        id
    }

    /// Looks up a device by name.
    pub fn find_device(&self, name: &str) -> Option<DeviceId> {
        self.device_index.get(name).copied()
    }

    /// Adds a resistor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive resistance or a duplicate device name.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, ohms: f64) -> DeviceId {
        assert!(ohms > 0.0, "resistor `{name}` must have positive resistance");
        self.add_device(name, vec![a, b], DeviceKind::Resistor { ohms })
    }

    /// Adds a capacitor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive capacitance or a duplicate device name.
    pub fn capacitor(&mut self, name: &str, a: NodeId, b: NodeId, farads: f64) -> DeviceId {
        assert!(farads > 0.0, "capacitor `{name}` must have positive capacitance");
        self.add_device(name, vec![a, b], DeviceKind::Capacitor { farads, ic: None })
    }

    /// Adds a capacitor with an initial voltage, enforced at the start of
    /// transient analysis (like SPICE `.ic`).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive capacitance or a duplicate device name.
    pub fn capacitor_with_ic(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
        ic: f64,
    ) -> DeviceId {
        assert!(farads > 0.0, "capacitor `{name}` must have positive capacitance");
        self.add_device(name, vec![a, b], DeviceKind::Capacitor { farads, ic: Some(ic) })
    }

    /// Adds an inductor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive inductance or a duplicate device name.
    pub fn inductor(&mut self, name: &str, a: NodeId, b: NodeId, henries: f64) -> DeviceId {
        assert!(henries > 0.0, "inductor `{name}` must have positive inductance");
        self.add_device(name, vec![a, b], DeviceKind::Inductor { henries, ic: None })
    }

    /// Adds an inductor with an initial current (flowing `a` → `b`).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive inductance or a duplicate device name.
    pub fn inductor_with_ic(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        henries: f64,
        ic: f64,
    ) -> DeviceId {
        assert!(henries > 0.0, "inductor `{name}` must have positive inductance");
        self.add_device(name, vec![a, b], DeviceKind::Inductor { henries, ic: Some(ic) })
    }

    /// Magnetically couples two inductors with coefficient `k`.
    ///
    /// # Panics
    ///
    /// Panics if either device is not an inductor or `k` is outside `[0, 1)`.
    pub fn couple(&mut self, l1: DeviceId, l2: DeviceId, k: f64) {
        assert!((0.0..1.0).contains(&k), "coupling coefficient must be in [0, 1)");
        for id in [l1, l2] {
            assert!(
                matches!(self.devices[id.0].kind, DeviceKind::Inductor { .. }),
                "couple() requires inductor devices"
            );
        }
        assert!(l1 != l2, "cannot couple an inductor to itself");
        self.couplings.push(Coupling { l1, l2, k });
    }

    /// Adds an independent voltage source (`p` positive terminal).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate device name.
    pub fn voltage_source(&mut self, name: &str, p: NodeId, n: NodeId, wave: SourceFn) -> DeviceId {
        self.add_device(name, vec![p, n], DeviceKind::VSource { wave, ac: None })
    }

    /// Adds an independent voltage source that also carries a small-signal
    /// AC stimulus of the given magnitude and phase (radians).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate device name.
    pub fn voltage_source_ac(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: SourceFn,
        ac_mag: f64,
        ac_phase: f64,
    ) -> DeviceId {
        self.add_device(name, vec![p, n], DeviceKind::VSource { wave, ac: Some((ac_mag, ac_phase)) })
    }

    /// Adds an independent current source pushing current out of `p`,
    /// through the external circuit, into `n` (SPICE convention: positive
    /// current flows from `p` to `n` *inside* the source).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate device name.
    pub fn current_source(&mut self, name: &str, p: NodeId, n: NodeId, wave: SourceFn) -> DeviceId {
        self.add_device(name, vec![p, n], DeviceKind::ISource { wave, ac: None })
    }

    /// Adds an AC-capable current source; see [`Circuit::voltage_source_ac`].
    ///
    /// # Panics
    ///
    /// Panics on a duplicate device name.
    pub fn current_source_ac(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: SourceFn,
        ac_mag: f64,
        ac_phase: f64,
    ) -> DeviceId {
        self.add_device(name, vec![p, n], DeviceKind::ISource { wave, ac: Some((ac_mag, ac_phase)) })
    }

    /// Adds a voltage-controlled voltage source:
    /// `v(p,n) = gain · v(cp,cn)`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate device name.
    pub fn vcvs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> DeviceId {
        self.add_device(name, vec![p, n, cp, cn], DeviceKind::Vcvs { gain })
    }

    /// Adds a voltage-controlled current source:
    /// `i(p→n) = gm · v(cp,cn)`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate device name.
    pub fn vccs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> DeviceId {
        self.add_device(name, vec![p, n, cp, cn], DeviceKind::Vccs { gm })
    }

    /// Adds a diode (anode `a`, cathode `k`).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate device name.
    pub fn diode(&mut self, name: &str, a: NodeId, k: NodeId, model: DiodeModel) -> DeviceId {
        self.add_device(name, vec![a, k], DeviceKind::Diode { model })
    }

    /// Adds a MOSFET with terminals drain, gate, source, bulk.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate device name.
    pub fn mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        model: MosModel,
    ) -> DeviceId {
        self.add_device(name, vec![d, g, s, b], DeviceKind::Mosfet { model })
    }

    /// Adds a voltage-controlled switch between `p` and `n`, controlled by
    /// `v(cp,cn)`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate device name.
    pub fn switch(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        model: SwitchModel,
    ) -> DeviceId {
        self.add_device(name, vec![p, n, cp, cn], DeviceKind::Switch { model })
    }

    /// Sets the simulation temperature in °C (default 27 °C). Diode and
    /// MOSFET models are re-evaluated at this temperature for every
    /// analysis (thermal voltage, junction saturation current, threshold
    /// shift, mobility).
    pub fn set_temperature(&mut self, celsius: f64) {
        self.temperature = celsius;
    }

    /// The simulation temperature in °C.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// The circuit with device models re-evaluated at the simulation
    /// temperature; borrows unchanged at the nominal 27 °C.
    pub(crate) fn for_simulation(&self) -> Cow<'_, Circuit> {
        if (self.temperature - 27.0).abs() < 1e-9 {
            return Cow::Borrowed(self);
        }
        let mut adjusted = self.clone();
        for dev in &mut adjusted.devices {
            match &mut dev.kind {
                DeviceKind::Diode { model } => *model = model.at_temperature(self.temperature),
                DeviceKind::Mosfet { model } => *model = model.at_temperature(self.temperature),
                _ => {}
            }
        }
        Cow::Owned(adjusted)
    }

    /// Lowers the circuit into a compiled stamp program
    /// ([`CompiledCircuit`]), the entry point of the two-phase
    /// compile→simulate API.
    ///
    /// Compilation walks the netlist once: it fixes the sparse MNA
    /// pattern, folds every static stamp into value templates, resolves
    /// all device stamps to matrix slots, and validates the topology.
    /// The result is immutable and reusable across any number of
    /// analyses.
    ///
    /// ```
    /// use analog::{Circuit, SourceFn, TranConfig};
    /// # fn main() -> Result<(), analog::SimError> {
    /// let mut ckt = Circuit::new();
    /// let a = ckt.node("a");
    /// ckt.voltage_source("V1", a, Circuit::GND, SourceFn::sine(1.0, 1.0e3));
    /// ckt.resistor("R1", a, Circuit::GND, 1.0e3);
    /// let sim = ckt.compile()?;
    /// let trace = sim.tran(&TranConfig::builder(1.0e-3).build())?;
    /// assert!(trace.len() > 10);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidCircuit`] for an empty circuit,
    /// [`SimError::DanglingNode`] for a node with no device terminals,
    /// [`SimError::SingularAtDc`] for an ideal voltage-source loop, and
    /// [`SimError::UnsupportedDevice`] for sources the compiled engine
    /// cannot lower ([`SourceFn::Custom`]).
    pub fn compile(&self) -> Result<CompiledCircuit, SimError> {
        CompiledCircuit::build(self.for_simulation().into_owned())
    }

    /// Computes the DC operating point with the interpreted reference
    /// engine (dense MNA, netlist walked every Newton iteration).
    ///
    /// This is the validation baseline for the compiled engine — use
    /// [`Circuit::compile`] + [`CompiledCircuit::dc_op`] for production
    /// paths.
    ///
    /// # Errors
    ///
    /// As [`CompiledCircuit::dc_op`].
    #[doc(hidden)]
    pub fn dc_op_reference(&self) -> Result<OpPoint, SimError> {
        Engine::new(&self.for_simulation())?.dc_operating_point()
    }

    /// Runs a transient analysis with the interpreted reference engine.
    ///
    /// This is the validation baseline for the compiled engine — use
    /// [`Circuit::compile`] + [`CompiledCircuit::tran`] for production
    /// paths.
    ///
    /// # Errors
    ///
    /// As [`CompiledCircuit::tran`].
    #[doc(hidden)]
    pub fn transient_reference(&self, spec: &TranConfig) -> Result<TransientResult, SimError> {
        Engine::new(&self.for_simulation())?.transient(spec)
    }

    /// Instantaneous power dissipated in (or, for sources, delivered by)
    /// the named device across a transient result.
    ///
    /// Supported devices: resistors (`v²/R` from the node traces) and
    /// branch devices — voltage sources, VCVS, inductors — (`v·i` from
    /// the recorded branch current; positive means the device absorbs
    /// power). The result must have been produced by *this* circuit with
    /// current recording enabled.
    ///
    /// # Errors
    ///
    /// [`SimError::NotFound`] for unknown devices or missing traces, and
    /// [`SimError::InvalidParameter`] for device kinds without a
    /// recoverable current (diodes, MOSFETs, switches, capacitors).
    pub fn power_trace(
        &self,
        result: &TransientResult,
        device: &str,
    ) -> Result<crate::waveform::Waveform, SimError> {
        let id = self
            .find_device(device)
            .ok_or_else(|| SimError::NotFound(format!("device `{device}`")))?;
        let dev = &self.devices[id.0];
        let node_trace = |node: NodeId| -> Result<crate::waveform::Waveform, SimError> {
            if node.is_ground() {
                let time = result.time().to_vec();
                let zeros = vec![0.0; time.len()];
                return Ok(crate::waveform::Waveform::new(time, zeros));
            }
            result
                .trace(self.node_name(node))
                .ok_or_else(|| SimError::NotFound(format!("trace `{}`", self.node_name(node))))
        };
        match &dev.kind {
            DeviceKind::Resistor { ohms } => {
                let va = node_trace(dev.nodes[0])?;
                let vb = node_trace(dev.nodes[1])?;
                let r = *ohms;
                Ok(va.zip_with(&vb, move |a, b| (a - b) * (a - b) / r))
            }
            DeviceKind::VSource { .. } | DeviceKind::Inductor { .. } | DeviceKind::Vcvs { .. } => {
                let va = node_trace(dev.nodes[0])?;
                let vb = node_trace(dev.nodes[1])?;
                let i = result
                    .current_trace(device)
                    .ok_or_else(|| SimError::NotFound(format!("current trace `I({device})`")))?;
                let v = va.zip_with(&vb, |a, b| a - b);
                Ok(v.zip_with(&i, |v, i| v * i))
            }
            _ => Err(SimError::InvalidParameter {
                name: "device",
                reason: format!(
                    "`{device}` has no recorded current; power is available for \
                     resistors and branch devices (V sources, inductors, VCVS)"
                ),
            }),
        }
    }

    /// Serializes the circuit back to the SPICE-style card format accepted
    /// by [`crate::parse::parse_netlist`].
    ///
    /// `Am` and `Custom` source waveforms have no card syntax; they are
    /// emitted as their `t = 0` DC value with a warning comment, so a
    /// round trip of such circuits preserves topology and the operating
    /// point but not the waveform.
    pub fn to_netlist(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("* generated by analog::Circuit::to_netlist\n");
        if (self.temperature - 27.0).abs() > 1e-9 {
            let _ = writeln!(out, ".temp {}", self.temperature);
        }
        let node = |id: NodeId| -> &str {
            if id.is_ground() {
                "0"
            } else {
                self.node_name(id)
            }
        };
        let source_spec = |wave: &SourceFn, ac: &Option<(f64, f64)>| -> String {
            let mut s = match wave {
                SourceFn::Dc(v) => format!("DC {v}"),
                SourceFn::Sine { offset, amplitude, frequency, delay, phase } => format!(
                    "SIN({offset} {amplitude} {frequency} {delay} {})",
                    phase.to_degrees()
                ),
                SourceFn::Pulse { v1, v2, delay, rise, fall, width, period } => {
                    format!("PULSE({v1} {v2} {delay} {rise} {fall} {width} {period})")
                }
                SourceFn::Pwl(pwl) => {
                    let pts: Vec<String> =
                        pwl.points().iter().map(|(t, v)| format!("{t} {v}")).collect();
                    format!("PWL({})", pts.join(" "))
                }
                other => format!("DC {} ; WARNING: waveform not card-serializable", other.eval(0.0)),
            };
            if let Some((mag, phase)) = ac {
                let _ = write!(s, " AC {mag} {}", phase.to_degrees());
            }
            s
        };
        for dev in &self.devices {
            let n: Vec<&str> = dev.nodes.iter().map(|&id| node(id)).collect();
            let name = &dev.name;
            let line = match &dev.kind {
                DeviceKind::Resistor { ohms } => format!("{name} {} {} {ohms}", n[0], n[1]),
                DeviceKind::Capacitor { farads, ic } => match ic {
                    Some(ic) => format!("{name} {} {} {farads} IC={ic}", n[0], n[1]),
                    None => format!("{name} {} {} {farads}", n[0], n[1]),
                },
                DeviceKind::Inductor { henries, ic } => match ic {
                    Some(ic) => format!("{name} {} {} {henries} IC={ic}", n[0], n[1]),
                    None => format!("{name} {} {} {henries}", n[0], n[1]),
                },
                DeviceKind::VSource { wave, ac } | DeviceKind::ISource { wave, ac } => {
                    format!("{name} {} {} {}", n[0], n[1], source_spec(wave, ac))
                }
                DeviceKind::Vcvs { gain } | DeviceKind::Vccs { gm: gain } => {
                    format!("{name} {} {} {} {} {gain}", n[0], n[1], n[2], n[3])
                }
                DeviceKind::Diode { model } => {
                    format!("{name} {} {} IS={} N={}", n[0], n[1], model.is, model.n)
                }
                DeviceKind::Mosfet { model } => format!(
                    "{name} {} {} {} {} {} W={} L={} VTO={} KP={} LAMBDA={} GAMMA={} PHI={} JIS={}",
                    n[0],
                    n[1],
                    n[2],
                    n[3],
                    model.polarity.to_string().to_ascii_uppercase(),
                    model.w,
                    model.l,
                    model.vto,
                    model.kp,
                    model.lambda,
                    model.gamma,
                    model.phi,
                    model.junction_is
                ),
                DeviceKind::Switch { model } => format!(
                    "{name} {} {} {} {} VON={} VOFF={} RON={} ROFF={}",
                    n[0], n[1], n[2], n[3], model.von, model.voff, model.ron, model.roff
                ),
            };
            out.push_str(&line);
            out.push('\n');
        }
        for (i, cpl) in self.couplings.iter().enumerate() {
            let _ = writeln!(
                out,
                "K{} {} {} {}",
                i + 1,
                self.devices[cpl.l1.0].name,
                self.devices[cpl.l2.0].name,
                cpl.k
            );
        }
        out.push_str(".end\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut ckt = Circuit::new();
        assert_eq!(ckt.node("0"), Circuit::GND);
        assert_eq!(ckt.node("gnd"), Circuit::GND);
        assert!(Circuit::GND.is_ground());
    }

    #[test]
    fn node_creation_is_idempotent() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let a2 = ckt.node("a");
        assert_eq!(a, a2);
        assert_eq!(ckt.node_count(), 2);
        assert_eq!(ckt.node_name(a), "a");
    }

    #[test]
    #[should_panic(expected = "duplicate device name")]
    fn duplicate_device_names_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("R1", a, Circuit::GND, 1.0);
        ckt.resistor("R1", a, Circuit::GND, 2.0);
    }

    #[test]
    #[should_panic(expected = "positive resistance")]
    fn negative_resistor_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor("R1", a, Circuit::GND, -5.0);
    }

    #[test]
    #[should_panic(expected = "coupling coefficient")]
    fn coupling_k_range_checked() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let l1 = ckt.inductor("L1", a, Circuit::GND, 1e-6);
        let l2 = ckt.inductor("L2", b, Circuit::GND, 1e-6);
        ckt.couple(l1, l2, 1.5);
    }

    #[test]
    fn branch_indices_assigned_in_order() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(1.0));
        ckt.resistor("R1", a, b, 10.0);
        ckt.inductor("L1", b, Circuit::GND, 1e-3);
        assert_eq!(ckt.num_branches, 2);
        assert_eq!(ckt.devices[0].branch, Some(0));
        assert_eq!(ckt.devices[1].branch, None);
        assert_eq!(ckt.devices[2].branch, Some(1));
    }
}
