//! The four workloads. Each builds its fixture in set-up, runs one timed
//! call through the `bpvec` public API, and, for the traced run, repeats
//! the call with a span around each public call into a layer and then
//! times that layer's stages on their own.

use bpvec::core::{BitWidth, PackedSliceMatrix, Signedness, SliceWidth};
use bpvec::dnn::layer::{Layer, LayerKind};
use bpvec::dnn::packing::{pack_gemm_cols, pack_gemm_rows};
use bpvec::dnn::{reference, BitwidthPolicy, Network, NetworkId, PrecisionPolicy, Tensor};
use bpvec::isa::{
    diff_execution, diff_network, execution_probe, try_lower_network, Machine, MachineConfig,
};
use bpvec::obs::MemorySink;
use bpvec::serve::{
    run_fleet, run_fleet_traced, ArrivalProcess, BatchPolicy, FleetSpec, RegionSpec, RequestMix,
    Router, RunOptions, ServiceModel, ServingOutcome, TenantClass, TrafficSpec,
};
use bpvec::sim::systolic::{ArrayConfig, SystolicArray};
use bpvec::sim::{
    AcceleratorConfig, BatchRegime, DramSpec, Evaluator, NetworkExecutor, WeightStore, Workload,
};

use crate::trace::Tracer;

/// Simulated statistics of one call, as `(name, value)`. They repeat
/// exactly under a seed, so they are checked, never reported as metrics.
pub type Stats = Vec<(String, String)>;

/// Per-layer metrics of one traced round, as `(name, unit, value)`.
pub type Metrics = Vec<(String, &'static str, f64)>;

/// Problem sizes: `Full` is the benchmark, `Tiny` the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// A workload's fixture.
pub trait Bench {
    /// Prefix of this workload's per-layer metric names.
    fn prefix(&self) -> &'static str;

    /// One timed call; `Err` when the call's own output check fails.
    fn call(&mut self) -> Result<Stats, String>;

    /// Builds what only the traced run needs (per-layer inputs and
    /// operands), so it never counts as the untraced run's set-up.
    fn prepare_trace(&mut self) {}

    /// The call again, inside a `<prefix>.call` span with one child span
    /// per public call into a layer, followed by the layers' stages timed
    /// on their own. Returns the per-layer metrics of this round.
    fn traced(&mut self, t: &mut Tracer) -> Result<Metrics, String>;
}

/// The workload names `--workload` accepts.
pub const WORKLOADS: [&str; 4] = ["cnn-infer", "rnn-infer", "verify", "fleet-serve"];

/// Builds the fixture of `workload` for `seed`.
///
/// # Panics
///
/// Panics on a name outside [`WORKLOADS`]; arguments are checked first.
pub fn build(workload: &str, seed: u64, size: Size) -> Box<dyn Bench> {
    match workload {
        "cnn-infer" => Box::new(Cnn::new(seed, size)),
        "rnn-infer" => Box::new(Rnn::new(seed, size)),
        "verify" => Box::new(Verify::new(seed, size)),
        "fleet-serve" => Box::new(Fleet::new(seed, size)),
        other => panic!("unknown workload `{other}`"),
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tensor of `shape` filled from `seed` with values in the signed range
/// of `bits`. `stream` separates tensors drawn from one seed.
fn seeded(shape: &[usize], bits: BitWidth, seed: u64, stream: u64) -> Tensor {
    let (lo, hi) = bits.range(Signedness::Signed);
    let span = (hi - lo + 1) as u64;
    let base = mix(seed ^ mix(stream));
    let mut i = 0u64;
    Tensor::from_fn(shape, |_| {
        let v = lo + (mix(base ^ i) % span) as i32;
        i += 1;
        v
    })
}

/// FNV-1a over a tensor's shape and values.
fn digest(t: &Tensor) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let dims = t.shape().iter().map(|&d| d as u64);
    let vals = t.as_slice().iter().map(|&v| u64::from(v as u32));
    for word in dims.chain(vals) {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// How many of a tensor's values are not zero. Printed beside the digest,
/// because an output of all zeros makes the digest a weak check.
fn nonzero(t: &Tensor) -> usize {
    t.as_slice().iter().filter(|&&v| v != 0).count()
}

/// The input shape a single layer consumes.
fn input_shape(layer: &Layer) -> Vec<usize> {
    match layer.kind {
        LayerKind::Conv2d {
            in_channels,
            input_hw,
            ..
        } => vec![in_channels, input_hw.0, input_hw.1],
        LayerKind::Pool {
            channels, input_hw, ..
        } => vec![channels, input_hw.0, input_hw.1],
        LayerKind::FullyConnected { in_features, .. } => vec![in_features],
        LayerKind::Recurrent {
            input_size,
            seq_len,
            ..
        } => vec![seq_len, input_size],
        _ => panic!(
            "no benchmark input for layer kind {}",
            layer.kind.kind_name()
        ),
    }
}

/// A one-layer stack whose weights equal those the full network's
/// `WeightStore::synthesize(layers, seed)` gives layer `index`.
///
/// The store derives layer `i`'s weights from `seed ^ (i << 32)`, so the
/// stack's seed is chosen to land on the same values; the caller checks
/// that they really match before relying on it.
fn one_layer(layers: &[Layer], index: usize, seed: u64) -> (Vec<Layer>, WeightStore) {
    let stack = vec![layers[index].clone()];
    let weights = WeightStore::synthesize(&stack, seed ^ ((index as u64) << 32));
    (stack, weights)
}

fn paper_array() -> (NetworkExecutor, SystolicArray, SliceWidth) {
    let config = ArrayConfig::paper_default();
    (
        NetworkExecutor::new(SystolicArray::new(config)),
        SystolicArray::new(config),
        config.cvu.slice_width,
    )
}

/// Digest of `execute_reference` on the fixture `workload` builds for
/// `seed`: the ground truth the packed call's digest is pinned to. `None`
/// for workloads without an output tensor.
#[cfg(test)]
pub fn reference_digest(workload: &str, seed: u64, size: Size) -> Option<String> {
    let (layers, weights, input) = match workload {
        "cnn-infer" => {
            let c = Cnn::new(seed, size);
            (c.layers, c.weights, c.input)
        }
        "rnn-infer" => {
            let r = Rnn::new(seed, size);
            (r.layers, r.weights, r.input)
        }
        _ => return None,
    };
    let (executor, _, _) = paper_array();
    Some(digest(
        &executor.execute_reference(&layers, &input, &weights),
    ))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn stat(name: impl Into<String>, value: impl ToString) -> (String, String) {
    (name.into(), value.to_string())
}

// ---------------------------------------------------------------- cnn-infer

/// One layer of the traced CNN: its one-layer stack and, for conv layers,
/// a seeded activation matrix of its im2col shape for the `pack_a` stage.
struct CnnLayer {
    stack: Vec<Layer>,
    weights: WeightStore,
    cols: Option<Tensor>,
}

/// `cnn-infer`: full AlexNet under Table I `Heterogeneous`, one inference
/// per call. `Tiny` runs conv1 alone.
struct Cnn {
    seed: u64,
    executor: NetworkExecutor,
    array: SystolicArray,
    slice: SliceWidth,
    layers: Vec<Layer>,
    weights: WeightStore,
    input: Tensor,
    traced: Vec<CnnLayer>,
    /// The network's activation entering each layer, then its output.
    acts: Vec<Tensor>,
    last_digest: Option<String>,
}

impl Cnn {
    fn new(seed: u64, size: Size) -> Self {
        let net = Network::build(NetworkId::AlexNet, BitwidthPolicy::Heterogeneous);
        let layers = match size {
            Size::Full => net.layers,
            Size::Tiny => net.layers[..1].to_vec(),
        };
        let weights = WeightStore::synthesize(&layers, seed);
        let input = seeded(&input_shape(&layers[0]), layers[0].act_bits, seed, 0);
        let (executor, array, slice) = paper_array();
        Cnn {
            seed,
            executor,
            array,
            slice,
            layers,
            weights,
            input,
            traced: Vec::new(),
            acts: Vec::new(),
            last_digest: None,
        }
    }
}

/// The requantization width of layer `li`'s output: the next compute
/// layer's activation width, or its own at the end of the stack.
fn output_bits(layers: &[Layer], li: usize) -> BitWidth {
    layers[li + 1..]
        .iter()
        .find(|l| l.is_compute())
        .map_or(layers[li].act_bits, |l| l.act_bits)
}

/// The smallest right shift that brings `t`'s extremes into the signed
/// `bits` range, as the executor chooses it.
fn requant_shift(t: &Tensor, bits: BitWidth) -> u32 {
    let (_, hi) = bits.range(Signedness::Signed);
    let mut max = i64::from(t.max_abs());
    let mut shift = 0;
    while max > i64::from(hi) {
        max >>= 1;
        shift += 1;
    }
    shift
}

/// Every activation of a CNN stack on `input`: the input of each layer,
/// then the output. A replay of `execute_reference` on the public
/// reference ops, because the executor returns only the final output; its
/// last entry is checked against the network's output digest.
fn cnn_activations(layers: &[Layer], weights: &WeightStore, input: &Tensor) -> Vec<Tensor> {
    let mut acts = vec![input.clone()];
    for (li, layer) in layers.iter().enumerate() {
        let act = acts.last().expect("input");
        let w = weights.layer(li);
        let bits = output_bits(layers, li);
        let epilogue = |acc: Tensor| {
            let q =
                reference::requantize(&acc, requant_shift(&acc, bits), bits, Signedness::Signed);
            if li + 1 == layers.len() {
                q
            } else {
                reference::relu(&q)
            }
        };
        let out = match layer.kind {
            LayerKind::Conv2d {
                stride, padding, ..
            } => epilogue(reference::conv2d(act, w, stride, padding)),
            LayerKind::FullyConnected { .. } => epilogue(reference::gemv(w, act)),
            LayerKind::Pool { kernel, stride, .. } => reference::maxpool2d(act, kernel, stride),
            _ => panic!("no CNN replay for layer kind {}", layer.kind.kind_name()),
        };
        acts.push(out);
    }
    acts
}

impl Bench for Cnn {
    fn prefix(&self) -> &'static str {
        "cnn"
    }

    fn call(&mut self) -> Result<Stats, String> {
        let trace = self
            .executor
            .execute(&self.layers, &self.input, &self.weights)
            .map_err(err)?;
        let shifts: Vec<String> = trace
            .layers
            .iter()
            .map(|l| l.requant_shift.to_string())
            .collect();
        let d = digest(&trace.output);
        self.last_digest = Some(d.clone());
        Ok(vec![
            stat("digest", d),
            stat("nonzero_outputs", nonzero(&trace.output)),
            stat("requant_shifts", shifts.join(",")),
            stat("macs", trace.total_macs()),
            stat("array_macs", trace.total_array_macs()),
            stat("array_cycles", trace.total_cycles()),
        ])
    }

    fn prepare_trace(&mut self) {
        self.acts = cnn_activations(&self.layers, &self.weights, &self.input);
        self.traced = (0..self.layers.len())
            .map(|li| {
                let (stack, weights) = one_layer(&self.layers, li, self.seed);
                let layer = &stack[0];
                let cols = match layer.kind {
                    LayerKind::Conv2d {
                        in_channels,
                        kernel,
                        ..
                    } => {
                        let (oh, ow) = layer.output_hw().expect("conv output size");
                        let k = in_channels * kernel.0 * kernel.1;
                        Some(seeded(
                            &[k, oh * ow],
                            layer.act_bits,
                            self.seed,
                            100 + li as u64,
                        ))
                    }
                    _ => None,
                };
                CnnLayer {
                    stack,
                    weights,
                    cols,
                }
            })
            .collect();
    }

    /// Expects `call` to have run first: the replayed activations are
    /// checked against its output.
    fn traced(&mut self, t: &mut Tracer) -> Result<Metrics, String> {
        let mark = t.mark();
        let (executor, array, slice) = (&self.executor, &self.array, self.slice);
        let acts = &self.acts;
        let last = self.layers.len() - 1;
        if Some(digest(&acts[last + 1])) != self.last_digest {
            return Err("cnn: replayed activations differ from the network's output".into());
        }
        // Each layer runs on the activation the network feeds it. A one-layer
        // stack is its own last layer: it skips the ReLU and requantizes to
        // its own width, so its output is checked against the network's
        // after a ReLU, where the widths agree.
        let mut exec_cycles = Vec::new();
        t.span("cnn.call", |t| {
            for (li, l) in self.traced.iter().enumerate() {
                let name = format!("cnn.{}.exec", l.stack[0].name);
                let run = t.span(name, |_| executor.execute(&l.stack, &acts[li], &l.weights));
                let run = run.map_err(err)?;
                exec_cycles.push(run.total_cycles());
                let out = if li == last || !l.stack[0].is_compute() {
                    run.output
                } else {
                    reference::relu(&run.output)
                };
                let layer = &self.layers[li];
                let checked =
                    !layer.is_compute() || output_bits(&self.layers, li) == layer.act_bits;
                if checked && out.as_slice() != acts[li + 1].as_slice() {
                    return Err(format!(
                        "cnn.{}: one-layer output differs from the network's",
                        l.stack[0].name
                    ));
                }
            }
            Ok::<_, String>(())
        })?;
        let expected: u64 = self.layers.iter().map(Layer::macs).sum();
        let mut metrics = Metrics::new();
        let mut pool_s = 0.0;
        let mut macs = 0;
        t.span("cnn.stages", |t| {
            for (li, l) in self.traced.iter().enumerate() {
                let layer = &l.stack[0];
                let p = format!("cnn.{}", layer.name);
                let exec_s = t.wall(mark, &format!("{p}.exec"));
                if matches!(layer.kind, LayerKind::Pool { .. }) {
                    pool_s += exec_s;
                    continue;
                }
                if l.weights.layer(0) != self.weights.layer(li) {
                    return Err(format!("{p}: one-layer weights differ from the network's"));
                }
                let w = l.weights.layer(0);
                let pw = t.span(format!("{p}.pack_w"), |_| {
                    pack_gemm_rows(w, layer.weight_bits, slice, Signedness::Signed)
                });
                let pa = t.span(format!("{p}.pack_a"), |_| match &l.cols {
                    Some(cols) => pack_gemm_cols(cols, layer.act_bits, slice, Signedness::Signed),
                    None => PackedSliceMatrix::pack(
                        acts[li].as_slice(),
                        layer.act_bits,
                        slice,
                        Signedness::Signed,
                    ),
                });
                let (pw, pa) = (pw.map_err(err)?, pa.map_err(err)?);
                let run = t
                    .span(format!("{p}.gemm"), |_| array.gemm_packed(&pw, &pa))
                    .map_err(err)?;
                if run.macs != layer.macs() || run.cycles != exec_cycles[li] {
                    return Err(format!(
                        "{p}: stage GEMM ran {} MACs / {} cycles, the layer {} / {}",
                        run.macs,
                        run.cycles,
                        layer.macs(),
                        exec_cycles[li]
                    ));
                }
                macs += run.macs;
                metrics.push((format!("{p}.exec_s"), "s", exec_s));
                for stage in ["pack_w", "pack_a", "gemm"] {
                    metrics.push((
                        format!("{p}.{stage}_s"),
                        "s",
                        t.wall(mark, &format!("{p}.{stage}")),
                    ));
                }
                metrics.push((format!("{p}.macs"), "count", layer.macs() as f64));
            }
            Ok(())
        })?;
        if macs != expected {
            return Err(format!(
                "cnn: layers ran {macs} MACs, the network has {expected}"
            ));
        }
        if self
            .layers
            .iter()
            .any(|l| matches!(l.kind, LayerKind::Pool { .. }))
        {
            metrics.push(("cnn.pool_s".into(), "s", pool_s));
        }
        Ok(metrics)
    }
}

// ---------------------------------------------------------------- rnn-infer

/// `rnn-infer`: the 2-layer LSTM under `Heterogeneous` at sequence length
/// 128, one sequence per call. `Tiny` runs sequence length 4.
struct Rnn {
    seed: u64,
    executor: NetworkExecutor,
    array: SystolicArray,
    slice: SliceWidth,
    layers: Vec<Layer>,
    weights: WeightStore,
    input: Tensor,
    stacks: Vec<(Vec<Layer>, WeightStore)>,
    last_digest: String,
}

impl Rnn {
    fn new(seed: u64, size: Size) -> Self {
        let seq = match size {
            Size::Full => 128,
            Size::Tiny => 4,
        };
        let policy = PrecisionPolicy::Preset(BitwidthPolicy::Heterogeneous);
        let net = Network::build_shaped(NetworkId::Lstm, &policy, Some(seq), None)
            .expect("preset policies apply to every network");
        let weights = WeightStore::synthesize(&net.layers, seed);
        let input = seeded(
            &input_shape(&net.layers[0]),
            net.layers[0].act_bits,
            seed,
            0,
        );
        let (executor, array, slice) = paper_array();
        Rnn {
            seed,
            executor,
            array,
            slice,
            layers: net.layers,
            weights,
            input,
            stacks: Vec::new(),
            last_digest: String::new(),
        }
    }
}

/// The executor's requantization shift for a recurrent layer's gates. The
/// stage replay needs it to call `lstm_recombine`; the replay's output is
/// checked against the executor's, so a drift here shows as a failure.
fn recurrent_shift(layer: &Layer, input_size: usize, hidden_size: usize) -> u32 {
    let (_, w_hi) = layer.weight_bits.range(Signedness::Signed);
    let (_, a_hi) = layer.act_bits.range(Signedness::Signed);
    let worst = (input_size + hidden_size) as i64 * i64::from(w_hi + 1) * i64::from(a_hi + 1);
    let mut shift = 0u32;
    let mut m = worst;
    while m > i64::from(a_hi) {
        m >>= 1;
        shift += 1;
    }
    shift.saturating_sub(3)
}

impl Bench for Rnn {
    fn prefix(&self) -> &'static str {
        "rnn"
    }

    fn call(&mut self) -> Result<Stats, String> {
        let trace = self
            .executor
            .execute(&self.layers, &self.input, &self.weights)
            .map_err(err)?;
        self.last_digest = digest(&trace.output);
        Ok(vec![
            stat("digest", self.last_digest.clone()),
            stat("nonzero_outputs", nonzero(&trace.output)),
            stat("macs", trace.total_macs()),
            stat("array_macs", trace.total_array_macs()),
            stat("array_cycles", trace.total_cycles()),
        ])
    }

    fn prepare_trace(&mut self) {
        self.stacks = (0..self.layers.len())
            .map(|li| one_layer(&self.layers, li, self.seed))
            .collect();
    }

    /// Expects `call` to have run first: the chained stacks are checked
    /// against its output.
    fn traced(&mut self, t: &mut Tracer) -> Result<Metrics, String> {
        let mark = t.mark();
        let executor = &self.executor;
        // Recurrent layers pass activations through unchanged between
        // layers, so chaining one-layer stacks is the whole network.
        let mut acts = vec![self.input.clone()];
        t.span("rnn.call", |t| {
            for (stack, weights) in &self.stacks {
                let name = format!("rnn.{}.exec", stack[0].name);
                let input = acts.last().expect("input");
                let run = t.span(name, |_| executor.execute(stack, input, weights));
                acts.push(run.map_err(err)?.output);
            }
            Ok::<_, String>(())
        })?;
        if digest(acts.last().expect("output")) != self.last_digest {
            return Err("rnn: chained one-layer stacks differ from the network".into());
        }
        let (array, slice) = (&self.array, self.slice);
        let mut metrics = Metrics::new();
        t.span("rnn.stages", |t| {
            for (li, (stack, weights)) in self.stacks.iter().enumerate() {
                let layer = &stack[0];
                let p = format!("rnn.{}", layer.name);
                let LayerKind::Recurrent {
                    input_size,
                    hidden_size,
                    seq_len,
                    ..
                } = layer.kind
                else {
                    return Err(format!("{p} is not recurrent"));
                };
                if weights.layer(0) != self.weights.layer(li) {
                    return Err(format!("{p}: one-layer weights differ from the network's"));
                }
                let shift = recurrent_shift(layer, input_size, hidden_size);
                let bits = layer.act_bits;
                let pw = t
                    .span(format!("{p}.pack_w"), |_| {
                        pack_gemm_rows(
                            weights.layer(0),
                            layer.weight_bits,
                            slice,
                            Signedness::Signed,
                        )
                    })
                    .map_err(err)?;
                let x = acts[li].as_slice();
                let mut h = Tensor::zeros(&[hidden_size]);
                let mut c = Tensor::zeros(&[hidden_size]);
                let mut out = Vec::with_capacity(seq_len * hidden_size);
                for step in 0..seq_len {
                    let mut xh = x[step * input_size..(step + 1) * input_size].to_vec();
                    xh.extend_from_slice(h.as_slice());
                    let px = t
                        .span(format!("{p}.pack_x"), |_| {
                            PackedSliceMatrix::pack(&xh, bits, slice, Signedness::Signed)
                        })
                        .map_err(err)?;
                    let run = t
                        .span(format!("{p}.gemm"), |_| array.gemm_packed(&pw, &px))
                        .map_err(err)?;
                    let mut pre = run.output;
                    pre.reshape(&[4 * hidden_size]);
                    // The LSTM's output alone is a weak check (see README), so
                    // the first step's gate GEMV is checked against the
                    // reference bit for bit.
                    if step == 0 {
                        let xh = Tensor::from_data(&[xh.len()], xh);
                        if reference::gemv(weights.layer(0), &xh) != pre {
                            return Err(format!(
                                "{p}: packed gate GEMV differs from the reference"
                            ));
                        }
                    }
                    (h, c) = t.span(format!("{p}.recombine"), |_| {
                        reference::lstm_recombine(&pre, &c, shift, bits)
                    });
                    out.extend_from_slice(h.as_slice());
                }
                if out != acts[li + 1].as_slice() {
                    return Err(format!("{p}: stage replay differs from the executor"));
                }
                metrics.push((
                    format!("{p}.exec_s"),
                    "s",
                    t.wall(mark, &format!("{p}.exec")),
                ));
                for stage in ["pack_w", "pack_x", "gemm", "recombine"] {
                    metrics.push((
                        format!("{p}.{stage}_s"),
                        "s",
                        t.wall(mark, &format!("{p}.{stage}")),
                    ));
                }
                metrics.push((
                    format!("{p}.gemm_cpu_s"),
                    "s",
                    t.cpu(mark, &format!("{p}.gemm")),
                ));
                metrics.push((format!("{p}.steps"), "count", seq_len as f64));
            }
            Ok(())
        })?;
        Ok(metrics)
    }
}

// ------------------------------------------------------------------- verify

/// One `execution_probe` window with a seeded input.
struct Probe {
    name: &'static str,
    layers: Vec<Layer>,
    input: Tensor,
}

/// `verify`: `diff_execution` on the probe windows of AlexNet, BERT-Base
/// and LSTM, then `diff_network` over all 8 networks × both policies at
/// the paper's batches; one pass per call, which must be clean. `Tiny`
/// runs the LSTM probe and one grid cell.
struct Verify {
    probes: Vec<Probe>,
    grid: Vec<(Network, u64)>,
    machine: MachineConfig,
    probe_weights: Vec<WeightStore>,
}

impl Verify {
    fn new(seed: u64, size: Size) -> Self {
        let probe_ids: &[(&'static str, NetworkId)] = match size {
            Size::Full => &[
                ("alexnet", NetworkId::AlexNet),
                ("bert", NetworkId::BertBase),
                ("lstm", NetworkId::Lstm),
            ],
            Size::Tiny => &[("lstm", NetworkId::Lstm)],
        };
        let probes = probe_ids
            .iter()
            .enumerate()
            .map(|(i, &(name, id))| {
                let (layers, shape_of) = execution_probe(id, BitwidthPolicy::Heterogeneous);
                let input = seeded(shape_of.shape(), layers[0].act_bits, seed, i as u64);
                Probe {
                    name,
                    layers,
                    input,
                }
            })
            .collect();
        let nets: &[NetworkId] = match size {
            Size::Full => &[
                NetworkId::AlexNet,
                NetworkId::InceptionV1,
                NetworkId::ResNet18,
                NetworkId::ResNet50,
                NetworkId::Rnn,
                NetworkId::Lstm,
                NetworkId::VitBase,
                NetworkId::BertBase,
            ],
            Size::Tiny => &[NetworkId::AlexNet],
        };
        let batches = BatchRegime::paper_default();
        let mut grid = Vec::new();
        for &id in nets {
            for policy in [BitwidthPolicy::Homogeneous8, BitwidthPolicy::Heterogeneous] {
                grid.push((Network::build(id, policy), batches.batch_for(id)));
            }
        }
        if size == Size::Tiny {
            grid.truncate(1);
        }
        Verify {
            probes,
            grid,
            machine: MachineConfig::bpvec_ddr4(),
            probe_weights: Vec::new(),
        }
    }

    /// One verification pass; with a tracer, each public call gets a span.
    fn pass(&self, mut t: Option<&mut Tracer>) -> Result<Stats, String> {
        let mut stats = Stats::new();
        for p in &self.probes {
            let d = maybe_span(&mut t, format!("verify.{}.diff", p.name), || {
                diff_execution(p.name, &p.layers, &p.input, self.machine)
            })
            .map_err(err)?;
            if !d.is_clean() {
                return Err(format!("verify: probe not clean:\n{d}"));
            }
            let macs: u64 = d.layers.iter().map(|l| l.macs).sum();
            let cycles: u64 = d.layers.iter().map(|l| l.array_cycles).sum();
            stats.push(stat(format!("{}.macs", p.name), macs));
            stats.push(stat(format!("{}.array_cycles", p.name), cycles));
        }
        let diffs = maybe_span(&mut t, "verify.grid.diff".into(), || {
            self.grid
                .iter()
                .map(|(net, b)| diff_network(net, self.machine, *b))
                .collect::<Vec<_>>()
        });
        if let Some(d) = diffs.iter().find(|d| !d.is_clean()) {
            return Err(format!("verify: grid cell not clean:\n{d}"));
        }
        let layers: usize = diffs.iter().map(|d| d.layers.len()).sum();
        let mismatches: usize = diffs.iter().map(|d| d.mismatch_count()).sum();
        stats.push(stat("grid.layers", layers));
        stats.push(stat("mismatches", mismatches));
        Ok(stats)
    }
}

fn maybe_span<T>(t: &mut Option<&mut Tracer>, name: String, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

impl Bench for Verify {
    fn prefix(&self) -> &'static str {
        "verify"
    }

    fn call(&mut self) -> Result<Stats, String> {
        self.pass(None)
    }

    fn prepare_trace(&mut self) {
        // The weights `diff_execution` synthesizes for its probes.
        self.probe_weights = self
            .probes
            .iter()
            .map(|p| WeightStore::synthesize(&p.layers, 0x5eed))
            .collect();
    }

    fn traced(&mut self, t: &mut Tracer) -> Result<Metrics, String> {
        let mark = t.mark();
        let stats = t.span("verify.call", |t| self.pass(Some(t)))?;
        let mismatches = stats
            .iter()
            .find(|(name, _)| name == "mismatches")
            .and_then(|(_, v)| v.parse::<f64>().ok())
            .expect("a pass reports its mismatch count");
        let (executor, _, _) = paper_array();
        let working = self.machine.accel.scratchpad.working_bytes();
        let mut metrics = Metrics::new();
        t.span("verify.stages", |t| {
            for (p, weights) in self.probes.iter().zip(&self.probe_weights) {
                let pre = format!("verify.{}", p.name);
                let out = t
                    .span(format!("{pre}.exec"), |_| {
                        executor.execute(&p.layers, &p.input, weights)
                    })
                    .map_err(err)?;
                let reference = t.span(format!("{pre}.ref"), |_| {
                    executor.execute_reference(&p.layers, &p.input, weights)
                });
                if out.output != reference {
                    return Err(format!("{pre}: packed output differs from the reference"));
                }
                metrics.push((
                    format!("{pre}.ref_s"),
                    "s",
                    t.wall(mark, &format!("{pre}.ref")),
                ));
                metrics.push((
                    format!("{pre}.exec_s"),
                    "s",
                    t.wall(mark, &format!("{pre}.exec")),
                ));
                metrics.push((format!("{pre}.macs"), "count", out.total_macs() as f64));
                metrics.push((
                    format!("{pre}.diff_s"),
                    "s",
                    t.wall(mark, &format!("{pre}.diff")),
                ));
            }
            for (net, b) in &self.grid {
                let programs = t
                    .span("verify.grid.lower", |_| try_lower_network(net, working, *b))
                    .map_err(err)?;
                t.span("verify.grid.machine", |_| {
                    let mut machine = Machine::new(self.machine);
                    programs
                        .iter()
                        .try_for_each(|p| machine.try_run(p).map(|_| ()))
                })
                .map_err(err)?;
            }
            Ok(())
        })?;
        for stage in ["lower", "machine", "diff"] {
            let name = format!("verify.grid.{stage}");
            metrics.push((format!("{name}_s"), "s", t.wall(mark, &name)));
        }
        metrics.push(("verify.grid.mismatches".into(), "count", mismatches));
        Ok(metrics)
    }
}

// -------------------------------------------------------------- fleet-serve

/// `fleet-serve`: `run_fleet` on `fleet_sweep`'s topology at 2 regions × 4
/// clusters × 16 replicas, one 2M-request flash-crowd run and one
/// 200k-request diurnal run per call. `Tiny` runs 10k + 1k requests.
struct Fleet {
    seed: u64,
    accel: AcceleratorConfig,
    dram: DramSpec,
    policy: BatchPolicy,
    spec: FleetSpec,
    options: RunOptions,
    flash: TrafficSpec,
    diurnal: TrafficSpec,
    requests: (u64, u64),
}

const REGIONS: u32 = 2;
const CLUSTERS: u32 = 4;
const REPLICAS: u32 = 16;

impl Fleet {
    fn new(seed: u64, size: Size) -> Self {
        let (flash_n, diurnal_n) = match size {
            Size::Full => (2_000_000, 200_000),
            Size::Tiny => (10_000, 1_000),
        };
        let accel = AcceleratorConfig::bpvec();
        let dram = DramSpec::ddr4();
        let cnn = Workload::new(NetworkId::AlexNet, BitwidthPolicy::Homogeneous8);
        let rnn = Workload::new(NetworkId::Lstm, BitwidthPolicy::Homogeneous8);
        // Calibration as in `fleet_sweep`: mean batched (16) service time
        // over the mix gives each replica's capacity.
        let s16 = |w: &Workload| {
            let wb = w.clone().with_batching(BatchRegime::fixed(16));
            accel.evaluate(&wb, &wb.build(), &dram).latency_s
        };
        let mean_s16 = 0.8 * s16(&cnn) + 0.2 * s16(&rnn);
        let mix = RequestMix::new().and(cnn, 0.8).and(rnn, 0.2);
        let total = u64::from(REGIONS * CLUSTERS * REPLICAS);
        let capacity_rps = total as f64 / mean_s16;

        let region_replicas = u64::from(CLUSTERS * REPLICAS);
        let mut spec = FleetSpec::new()
            .with_router(Router::JoinShortestQueue)
            .with_spill(true)
            .with_forward_delay(2e-4);
        for r in 0..REGIONS {
            spec = spec.region(
                RegionSpec::new(format!("r{r}"), CLUSTERS, REPLICAS)
                    .with_queue_cap(48 * region_replicas),
            );
        }
        let last = REGIONS as usize - 1;
        let spec = spec
            .tenant(
                TenantClass::new("premium", 0.2)
                    .home(0)
                    .with_sla(8.0 * mean_s16),
            )
            .tenant(TenantClass::new("standard", 0.5).home(last.min(1)))
            .tenant(
                TenantClass::new("batch", 0.3)
                    .home(last)
                    .with_quota((2 * region_replicas).max(4)),
            );

        let base_rps = 0.7 * capacity_rps;
        let nominal_s = flash_n as f64 / base_rps;
        let flash = TrafficSpec::new(
            "flash",
            ArrivalProcess::flash_crowd(
                base_rps,
                2.0 * capacity_rps,
                0.25 * nominal_s,
                0.02 * nominal_s,
                0.10 * nominal_s,
            ),
            mix.clone(),
            flash_n,
        );
        let diurnal_mean = 0.5 * (0.5 + 1.1) * capacity_rps;
        let diurnal = TrafficSpec::new(
            "diurnal",
            ArrivalProcess::diurnal(
                0.5 * capacity_rps,
                1.1 * capacity_rps,
                0.5 * diurnal_n as f64 / diurnal_mean,
            ),
            mix,
            diurnal_n,
        );
        Fleet {
            seed,
            accel,
            dram,
            policy: BatchPolicy::deadline(16, 4.0 * mean_s16),
            spec,
            options: RunOptions::default().with_sla(Some(16.0 * mean_s16)),
            flash,
            diurnal,
            requests: (flash_n, diurnal_n),
        }
    }

    fn run(&self, traffic: &TrafficSpec) -> ServingOutcome {
        run_fleet(
            &self.accel,
            &self.dram,
            self.policy,
            &self.spec,
            traffic,
            ServiceModel::Deterministic,
            self.seed,
            self.options,
        )
    }

    fn stats(&self, flash: &ServingOutcome, diurnal: &ServingOutcome) -> Result<Stats, String> {
        let mut stats = Stats::new();
        for (label, requests, out) in [
            ("flash", self.requests.0, flash),
            ("diurnal", self.requests.1, diurnal),
        ] {
            if out.admitted + out.dropped != requests {
                return Err(format!(
                    "{label}: admitted {} + dropped {} != {requests} requests",
                    out.admitted, out.dropped
                ));
            }
            if out.completed != out.admitted {
                return Err(format!(
                    "{label}: completed {} != admitted {}",
                    out.completed, out.admitted
                ));
            }
            if out.peak_records_retained != 0 {
                return Err(format!(
                    "{label}: retained {} records",
                    out.peak_records_retained
                ));
            }
            stats.push(stat(format!("{label}.completed"), out.completed));
            stats.push(stat(format!("{label}.dropped"), out.dropped));
            // The sketched p99 lands on a bucket edge that is the same for
            // every seed here, so the exact mean pins the latencies too.
            stats.push(stat(
                format!("{label}.p99_s"),
                format!("{:?}", out.summary.p99_s),
            ));
            stats.push(stat(
                format!("{label}.mean_s"),
                format!("{:?}", out.summary.mean_s),
            ));
            stats.push(stat(format!("{label}.events"), out.events));
        }
        Ok(stats)
    }
}

impl Bench for Fleet {
    fn prefix(&self) -> &'static str {
        "serve"
    }

    fn call(&mut self) -> Result<Stats, String> {
        let flash = self.run(&self.flash);
        let diurnal = self.run(&self.diurnal);
        self.stats(&flash, &diurnal)
    }

    fn traced(&mut self, t: &mut Tracer) -> Result<Metrics, String> {
        let mark = t.mark();
        let (flash, diurnal) = t.span("serve.call", |t| {
            let flash = t.span("serve.flash", |_| self.run(&self.flash));
            let diurnal = t.span("serve.diurnal", |_| self.run(&self.diurnal));
            (flash, diurnal)
        });
        let stats = self.stats(&flash, &diurnal)?;
        // Tracing at fleet_sweep's default stride of 1 in 10k requests.
        let stride = (self.requests.0 / 10_000).max(1);
        let sink = MemorySink::new();
        let traced = t.span("obs.flash_traced", |_| {
            run_fleet_traced(
                &self.accel,
                &self.dram,
                self.policy,
                &self.spec,
                &self.flash,
                ServiceModel::Deterministic,
                self.seed,
                self.options.with_trace_every(stride),
                &sink,
            )
        });
        if self.stats(&traced, &diurnal)? != stats || sink.is_empty() {
            return Err("obs: the traced flash run differs from the untraced one".into());
        }
        let (flash_s, diurnal_s) = (t.wall(mark, "serve.flash"), t.wall(mark, "serve.diurnal"));
        let events = (flash.events + diurnal.events) as f64;
        Ok(vec![
            ("serve.flash_s".into(), "s", flash_s),
            ("serve.diurnal_s".into(), "s", diurnal_s),
            ("serve.flash.events".into(), "count", flash.events as f64),
            (
                "serve.diurnal.events".into(),
                "count",
                diurnal.events as f64,
            ),
            (
                "serve.ns_per_event".into(),
                "ns",
                (flash_s + diurnal_s) / events * 1e9,
            ),
            (
                "obs.flash_traced_s".into(),
                "s",
                t.wall(mark, "obs.flash_traced"),
            ),
        ])
    }
}
