//! Lowered-graph HLS emission: per-tensor types, integer weights, and a
//! pipeline generated from the compiled plan's step schedule.
//!
//! [`LoweredDesign::generate`] compiles a [`CalibratedNetwork`] into the
//! same [`QuantPlan`] the integer inference path executes, takes the
//! flattened step list that plan runs ([`PlanSchedule`]) and renders every
//! network-dependent file from it:
//!
//! * `firmware/defines.h` — one `ap_fixed<W,I>` typedef **per tensor**
//!   (input and every step output), from the calibrated [`QuantParams`];
//! * `firmware/weights/weights.h` — the packed integer weight/bias codes
//!   the plan multiplies by (not floats), with their power-of-two scales;
//! * `firmware/parameters.h` — one config struct per step carrying the
//!   geometry and the exact requantize shifts;
//! * `firmware/{name}.cpp` — a `top()` whose call sequence is the identical
//!   flattened step list [`QuantPlan`] walks: residual fork/merge,
//!   requantize shifts, integer relu/pool and exit heads included.
//!
//! The MC-dropout header and `build_prj.tcl` come from
//! [`crate::templates`].
//!
//! Because every constant is an integer code or a power-of-two exponent,
//! emission is fully deterministic — the golden-file tests pin the output
//! byte for byte. [`crate::sim::HlsSimulator`] interprets the same schedule
//! in pure Rust integer arithmetic and must match
//! [`QuantPlan::predict_probs`] bit for bit.
//!
//! [`CalibratedNetwork`]: bnn_quant::CalibratedNetwork
//! [`QuantPlan`]: bnn_quant::QuantPlan
//! [`QuantPlan::predict_probs`]: bnn_quant::QuantPlan::predict_probs

use crate::config::HlsConfig;
use crate::error::HlsError;
use crate::project::HlsProject;
use crate::templates;
use bnn_quant::schedule::{PlanSchedule, ScheduleOp, ScheduleStep, MUL_FRAC};
use bnn_quant::{CalibratedNetwork, QuantError, QuantParams};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The static schedule of an emitted design: the op/buffer/parameter counts
/// a synthesis-free cross-check can compare against the `bnn-hw`
/// latency/resource model and the plan's own cost accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticSchedule {
    /// Number of pipeline stages (flattened steps) in the emitted `top()`.
    pub steps: usize,
    /// Per-sample multiply-accumulates of the conv/dense stages — must
    /// equal what `bnn_hw::layer_model` prices for the same spec.
    pub macs: u64,
    /// Per-sample integer ops over every stage (the plan's `fixed_cost`
    /// unit).
    pub unit_ops: u64,
    /// Per-sample activation buffer elements (the plan's arena capacity).
    pub buffer_elems: usize,
    /// Emitted parameters: weight codes + biases + affine constants.
    pub weight_params: usize,
    /// Longest stage chain one input flows through (backbone + deepest
    /// exit).
    pub pipeline_depth: usize,
}

/// An HLS project generated from the lowered graph: the emitted files plus
/// the schedule they were rendered from. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredDesign {
    project: HlsProject,
    schedule: PlanSchedule,
    summary: StaticSchedule,
}

/// Name and calibrated format of the value currently held by an arena slot
/// during the emission walk.
#[derive(Clone)]
struct SlotValue {
    name: String,
    params: QuantParams,
}

impl LoweredDesign {
    /// Compiles `calibrated` at `config.format` and emits the design.
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::Unsupported`] when the format is wider than the
    /// 16-bit integer path; other plan-compilation failures surface as
    /// [`HlsError::Quant`].
    pub fn generate(calibrated: &CalibratedNetwork, config: &HlsConfig) -> Result<Self, HlsError> {
        let plan = calibrated.plan(config.format).map_err(|e| match e {
            QuantError::Unsupported(msg) => HlsError::Unsupported(msg),
            other => HlsError::Quant(other),
        })?;
        Self::from_schedule(plan.schedule().clone(), config)
    }

    /// Emits the design from a compiled plan's schedule.
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::InvalidConfig`] for an empty project name.
    pub fn from_schedule(schedule: PlanSchedule, config: &HlsConfig) -> Result<Self, HlsError> {
        if config.project_name.is_empty() {
            return Err(HlsError::InvalidConfig("empty project name".into()));
        }
        let emitter = Emitter::walk(&schedule, config);
        let name = &config.project_name;
        let mut files = BTreeMap::new();
        files.insert(format!("firmware/{name}.cpp"), emitter.top_cpp(&schedule));
        files.insert(format!("firmware/{name}.h"), emitter.top_header(&schedule));
        files.insert("firmware/defines.h".into(), emitter.defines(&schedule));
        files.insert("firmware/parameters.h".into(), emitter.parameters.clone());
        files.insert("firmware/weights/weights.h".into(), emitter.weights.clone());
        files.insert(
            "firmware/nnet_utils/nnet_mc_dropout.h".into(),
            templates::mc_dropout_header(config),
        );
        files.insert("build_prj.tcl".into(), templates::build_tcl(config));
        files.insert("README.md".into(), emitter.readme(&schedule));

        let summary = StaticSchedule {
            steps: schedule.num_steps(),
            macs: ScheduleOp::total_macs(&schedule),
            unit_ops: schedule.total_unit_ops(),
            buffer_elems: schedule.buffer_elems(),
            weight_params: ScheduleOp::weight_params(&schedule),
            pipeline_depth: schedule.pipeline_depth(),
        };
        Ok(LoweredDesign {
            project: HlsProject::from_files(files),
            schedule,
            summary,
        })
    }

    /// The emitted file set.
    pub fn project(&self) -> &HlsProject {
        &self.project
    }

    /// The schedule the design was rendered from (the golden simulator's
    /// input).
    pub fn schedule(&self) -> &PlanSchedule {
        &self.schedule
    }

    /// Op/buffer/parameter counts of the emitted pipeline.
    pub fn summary(&self) -> &StaticSchedule {
        &self.summary
    }
}

/// Renders `ap_fixed<W,I>` for a calibrated per-tensor format.
fn ap_fixed(params: QuantParams) -> String {
    format!(
        "ap_fixed<{},{}>",
        params.format().total_bits(),
        params.format().integer_bits()
    )
}

/// Writes `static const {ty} {name}[{n}] = {...};` with 16 values per line.
fn int_array<I>(out: &mut String, ty: &str, name: &str, values: I)
where
    I: ExactSizeIterator<Item = i64>,
{
    let n = values.len();
    let _ = write!(out, "static const {ty} {name}[{n}] = {{");
    for (i, v) in values.enumerate() {
        if i % 16 == 0 {
            out.push_str("\n    ");
        } else {
            out.push(' ');
        }
        let _ = write!(out, "{v},");
    }
    out.push_str("\n};\n");
}

/// One rendered pipeline stage: the call line plus its destination buffer.
struct Stage {
    comment: String,
    decl: Option<String>,
    call: String,
}

/// The emission walk: renders parameters.h / weights.h bodies and the
/// per-stage call list while tracking which value each arena slot holds.
struct Emitter {
    config: HlsConfig,
    /// `(flat index, typedef line)` per value, input first.
    typedefs: Vec<String>,
    parameters: String,
    weights: String,
    /// Stages of the backbone segment.
    backbone: Vec<Stage>,
    /// Stages per exit, plus the exit's output buffer name and type.
    exits: Vec<(Vec<Stage>, String, String)>,
    weight_bits: u32,
}

impl Emitter {
    fn walk(schedule: &PlanSchedule, config: &HlsConfig) -> Self {
        let mut e = Emitter {
            config: config.clone(),
            typedefs: Vec::new(),
            parameters: String::from(
                "#ifndef PARAMETERS_H_\n#define PARAMETERS_H_\n\n#include \"defines.h\"\n#include \"weights/weights.h\"\n\n",
            ),
            weights: String::from(
                "#ifndef WEIGHTS_H_\n#define WEIGHTS_H_\n\n#include \"../defines.h\"\n\n",
            ),
            backbone: Vec::new(),
            exits: Vec::new(),
            weight_bits: schedule.in_note.format().total_bits(),
        };
        e.typedefs.push(format!(
            "typedef {} input_t; // calibrated input, scale 2^-{}",
            ap_fixed(schedule.in_note),
            schedule.in_note.fractional_bits()
        ));

        let mut owner: Vec<Option<SlotValue>> = vec![None; schedule.slot_elems.len()];
        owner[schedule.input_slot] = Some(SlotValue {
            name: "input".into(),
            params: schedule.in_note,
        });

        let mut k = 0usize;
        let mut stages = Vec::new();
        for step in &schedule.backbone {
            stages.push(e.emit_step(k, step, &mut owner));
            k += 1;
        }
        e.backbone = stages;
        for exit in &schedule.exits {
            let mut stages = Vec::new();
            for step in &exit.steps {
                stages.push(e.emit_step(k, step, &mut owner));
                k += 1;
            }
            let out = owner[exit.out_slot]
                .clone()
                .expect("exit output slot holds a value after its steps");
            e.exits
                .push((stages, out.name.clone(), format!("{}_t", out.name)));
        }
        let _ = writeln!(e.parameters, "#endif");
        let total: usize = ScheduleOp::weight_params(schedule);
        let _ = writeln!(
            e.weights,
            "// total parameters: {total} (integer codes; scales are powers of two)\n#endif"
        );
        e
    }

    /// Emits one step: typedef for its output value, config struct, weight
    /// arrays and the call line; updates the slot ownership map.
    fn emit_step(
        &mut self,
        k: usize,
        step: &ScheduleStep,
        owner: &mut [Option<SlotValue>],
    ) -> Stage {
        let src = owner[step.src]
            .clone()
            .expect("step source slot holds a value");
        let src2 = step
            .src2
            .map(|s| owner[s].clone().expect("merge shortcut slot holds a value"));
        let out_params = step.op.out_params().unwrap_or(src.params);
        let name = format!("v{k}");
        let ty = format!("v{k}_t");
        let elems: usize = step.out_dims.iter().product();
        self.typedefs.push(format!(
            "typedef {} {ty}; // step {k} {} out, scale 2^-{}",
            ap_fixed(out_params),
            step.op.name(),
            out_params.fractional_bits()
        ));

        let comment = format!(
            "// step {k}: {} {:?} -> {:?}",
            step.op.name(),
            step.in_dims,
            step.out_dims
        );
        let decl = Some(format!("    {ty} {name}[{elems}];"));
        let reuse = self.config.reuse_factor;
        let wbits = self.weight_bits;
        let src_t = format!("{}_t", src.name);
        let src_ty = if src.name == "input" {
            "input_t".to_string()
        } else {
            src_t
        };

        let mut cfg = format!("// step {k}: {}\nstruct config{k} {{\n", step.op.name());
        let call = match &step.op {
            ScheduleOp::Conv {
                weights,
                bias,
                out_c,
                in_c,
                kernel,
                stride,
                padding,
                shift,
                w_frac,
                out: _,
            } => {
                let (in_h, in_w) = (step.in_dims[1], step.in_dims[2]);
                let (out_h, out_w) = (step.out_dims[1], step.out_dims[2]);
                let acc_frac = w_frac + src.params.fractional_bits();
                let _ = writeln!(self.weights, "// step {k}: conv2d weights [out_c={out_c}, in_c*k*k={}], scale 2^-{w_frac}; bias scale 2^-{acc_frac}",
                    in_c * kernel * kernel
                );
                int_array(
                    &mut self.weights,
                    &format!("ap_int<{wbits}>"),
                    &format!("w{k}"),
                    weights.iter().map(|&w| w as i64),
                );
                int_array(
                    &mut self.weights,
                    "ap_int<48>",
                    &format!("b{k}"),
                    bias.iter().copied(),
                );
                self.weights.push('\n');
                let _ = writeln!(cfg, "    static const unsigned in_c = {in_c};\n    static const unsigned out_c = {out_c};\n    static const unsigned kernel = {kernel};\n    static const unsigned stride = {stride};\n    static const unsigned padding = {padding};\n    static const unsigned in_h = {in_h};\n    static const unsigned in_w = {in_w};\n    static const unsigned out_h = {out_h};\n    static const unsigned out_w = {out_w};\n    static const int requant_shift = {shift};\n    static const unsigned reuse_factor = {reuse};",
                );
                format!(
                    "    nnet::conv2d<{src_ty}, {ty}, config{k}>({}, {name}, w{k}, b{k});",
                    src.name
                )
            }
            ScheduleOp::Dense {
                weights_t,
                bias,
                in_f,
                out_f,
                shift,
                w_frac,
                out: _,
            } => {
                let acc_frac = w_frac + src.params.fractional_bits();
                let _ = writeln!(self.weights, "// step {k}: dense weights transposed [out_f={out_f}, in_f={in_f}], scale 2^-{w_frac}; bias scale 2^-{acc_frac}",
                );
                int_array(
                    &mut self.weights,
                    &format!("ap_int<{wbits}>"),
                    &format!("w{k}"),
                    weights_t.iter().map(|&w| w as i64),
                );
                int_array(
                    &mut self.weights,
                    "ap_int<48>",
                    &format!("b{k}"),
                    bias.iter().copied(),
                );
                self.weights.push('\n');
                let _ = writeln!(cfg, "    static const unsigned in_f = {in_f};\n    static const unsigned out_f = {out_f};\n    static const int requant_shift = {shift};\n    static const unsigned reuse_factor = {reuse};",
                );
                format!(
                    "    nnet::dense<{src_ty}, {ty}, config{k}>({}, {name}, w{k}, b{k});",
                    src.name
                )
            }
            ScheduleOp::Relu => {
                let n: usize = step.in_dims.iter().product();
                let _ = writeln!(cfg, "    static const unsigned n_elems = {n};");
                format!("    nnet::relu<{src_ty}, config{k}>({}, {name});", src.name)
            }
            ScheduleOp::MaxPool { kernel, stride } => {
                let (c, in_h, in_w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
                let (out_h, out_w) = (step.out_dims[1], step.out_dims[2]);
                let _ = writeln!(cfg, "    static const unsigned channels = {c};\n    static const unsigned in_h = {in_h};\n    static const unsigned in_w = {in_w};\n    static const unsigned out_h = {out_h};\n    static const unsigned out_w = {out_w};\n    static const unsigned kernel = {kernel};\n    static const unsigned stride = {stride};",
                );
                format!(
                    "    nnet::max_pool2d<{src_ty}, config{k}>({}, {name});",
                    src.name
                )
            }
            ScheduleOp::GlobalAvgPool => {
                let (c, in_h, in_w) = (step.in_dims[0], step.in_dims[1], step.in_dims[2]);
                let _ = writeln!(cfg, "    static const unsigned channels = {c};\n    static const unsigned in_h = {in_h};\n    static const unsigned in_w = {in_w};",
                );
                format!(
                    "    nnet::global_avg_pool2d<{src_ty}, config{k}>({}, {name});",
                    src.name
                )
            }
            ScheduleOp::Affine { m, b, out: _ } => {
                let (c, plane) = (step.in_dims[0], step.in_dims[1] * step.in_dims[2]);
                let _ = writeln!(
                    self.weights,
                    "// step {k}: affine multipliers/offsets, scale 2^-{MUL_FRAC}",
                );
                int_array(
                    &mut self.weights,
                    "ap_int<48>",
                    &format!("m{k}"),
                    m.iter().copied(),
                );
                int_array(
                    &mut self.weights,
                    "ap_int<48>",
                    &format!("c{k}"),
                    b.iter().copied(),
                );
                self.weights.push('\n');
                let _ = writeln!(cfg, "    static const unsigned channels = {c};\n    static const unsigned plane = {plane};\n    static const unsigned mul_frac = {MUL_FRAC};",
                );
                format!(
                    "    nnet::affine<{src_ty}, {ty}, config{k}>({}, {name}, m{k}, c{k});",
                    src.name
                )
            }
            ScheduleOp::McDropout {
                rate,
                scale_q,
                params: _,
            } => {
                let n: usize = step.in_dims.iter().product();
                let (filters, plane) = if step.in_dims.len() == 3 {
                    (step.in_dims[0], step.in_dims[1] * step.in_dims[2])
                } else {
                    (n, 1)
                };
                let _ = writeln!(cfg, "    static const unsigned n_elems = {n};\n    static const unsigned filters = {filters};\n    static const unsigned plane = {plane};\n    // dropout rate {rate}; kept values scale by scale_q * 2^-{MUL_FRAC}\n    static const ap_uint<48> scale_q = {scale_q};\n    static const unsigned mul_frac = {MUL_FRAC};",
                );
                format!(
                    "    nnet::mc_dropout<{src_ty}, config{k}>({}, {name});",
                    src.name
                )
            }
            ScheduleOp::Merge {
                m_shift,
                s_shift,
                out: _,
            } => {
                let short = src2.as_ref().expect("merge has a shortcut source");
                let short_ty = format!("{}_t", short.name);
                let n: usize = step.out_dims.iter().product();
                let _ = writeln!(cfg, "    static const unsigned n_elems = {n};\n    static const int main_shift = {m_shift};\n    static const int shortcut_shift = {s_shift};",
                );
                format!(
                    "    nnet::residual_merge<{src_ty}, {short_ty}, {ty}, config{k}>({}, {}, {name});",
                    src.name, short.name
                )
            }
        };
        cfg.push_str("};\n\n");
        self.parameters.push_str(&cfg);

        owner[step.dst] = Some(SlotValue {
            name,
            params: out_params,
        });
        Stage {
            comment,
            decl,
            call,
        }
    }

    fn defines(&self, schedule: &PlanSchedule) -> String {
        let mut out = String::from(
            "#ifndef DEFINES_H_\n#define DEFINES_H_\n\n#include \"ap_fixed.h\"\n#include \"ap_int.h\"\n\n// Per-tensor calibrated fixed-point formats (one typedef per value).\n",
        );
        for t in &self.typedefs {
            out.push_str(t);
            out.push('\n');
        }
        out.push('\n');
        for (e, (_, out_name, out_ty)) in self.exits.iter().enumerate() {
            let _ = writeln!(
                out,
                "typedef {out_ty} exit{e}_out_t; // logits of exit {e} ({out_name})"
            );
        }
        let input_size: usize = schedule.in_dims.iter().product();
        let _ = writeln!(out, "\n#define NUM_EXITS {}\n#define MC_SAMPLES {}\n#define N_CLASSES {}\n#define INPUT_SIZE {}\n#define NUM_SLOTS {}\n#define ARENA_ELEMS {}\n\n#endif",
            schedule.exits.len(),
            self.config.mc_samples,
            schedule.classes(),
            input_size,
            schedule.slot_elems.len(),
            schedule.buffer_elems(),
        );
        out
    }

    fn signature(&self, name: &str) -> String {
        let mut sig = format!("void {name}(\n    const input_t input[INPUT_SIZE]");
        for (e, _) in self.exits.iter().enumerate() {
            let _ = write!(sig, ",\n    exit{e}_out_t exit{e}_logits[N_CLASSES]");
        }
        sig.push_str("\n)");
        sig
    }

    fn top_cpp(&self, schedule: &PlanSchedule) -> String {
        let name = &self.config.project_name;
        let mut body = String::new();
        body.push_str("\n    // ---- backbone ----\n");
        for stage in &self.backbone {
            let _ = writeln!(body, "    {}", stage.comment);
            if let Some(decl) = &stage.decl {
                let _ = writeln!(body, "{decl}");
            }
            let _ = writeln!(body, "{}", stage.call);
        }
        for (e, (stages, out_name, _)) in self.exits.iter().enumerate() {
            let after = schedule.exits[e].after_block;
            let _ = writeln!(body, "\n    // ---- exit {e} (after block {after}) ----");
            for stage in stages {
                let _ = writeln!(body, "    {}", stage.comment);
                if let Some(decl) = &stage.decl {
                    let _ = writeln!(body, "{decl}");
                }
                let _ = writeln!(body, "{}", stage.call);
            }
            let _ = writeln!(
                body,
                "    nnet::write_logits<exit{e}_out_t, N_CLASSES>({out_name}, exit{e}_logits);"
            );
        }
        format!(
            r#"// Auto-generated by the bnn-hls transformation framework (Phase 4,
// lowered-graph backend). Every call below mirrors one step of the compiled
// integer plan; bnn_hls::sim interprets the same schedule as the golden
// C-simulation reference.
#include "{name}.h"
#include "parameters.h"
#include "nnet_utils/nnet_mc_dropout.h"

{sig} {{
#pragma HLS INTERFACE bram port=input
#pragma HLS DATAFLOW
{body}}}
"#,
            sig = self.signature(name),
        )
    }

    fn top_header(&self, schedule: &PlanSchedule) -> String {
        let name = &self.config.project_name;
        format!(
            r#"#ifndef {upper}_H_
#define {upper}_H_

#include "ap_fixed.h"
#include "defines.h"

// Lowered-graph design: {steps} pipeline steps, {exits} exit(s),
// {params} parameters, {elems} activation buffer elements.
{sig};

#endif
"#,
            upper = name.to_uppercase(),
            steps = schedule.num_steps(),
            exits = schedule.exits.len(),
            params = ScheduleOp::weight_params(schedule),
            elems = schedule.buffer_elems(),
            sig = self.signature(name),
        )
    }

    fn readme(&self, schedule: &PlanSchedule) -> String {
        format!(
            "# {name}\n\nHLS project generated from the **lowered graph**: the pipeline below is\nthe flattened step list the compiled integer plan executes, with one\ncalibrated `ap_fixed<W,I>` type per tensor and the packed integer\nweight/bias codes the plan multiplies by.\n\n* Global format: `{ty}` (per-tensor splits in `firmware/defines.h`)\n* Pipeline steps: {steps} ({exits} exits; depth {depth})\n* Per-sample MACs: {macs}\n* Parameters: {params}\n* Activation buffer elements: {elems}\n* Reuse factor: {reuse}\n* Clock period: {period} ns\n* MC samples: {samples}\n\n`bnn_hls::sim::HlsSimulator` interprets this design's schedule in pure\nRust integer arithmetic, bit-exact with `QuantPlan::predict_probs` — the\nC-simulation golden reference. Run `vivado_hls -f build_prj.tcl` to\nsynthesise.\n",
            name = self.config.project_name,
            ty = self.config.cpp_type(),
            steps = schedule.num_steps(),
            exits = schedule.exits.len(),
            depth = schedule.pipeline_depth(),
            macs = ScheduleOp::total_macs(schedule),
            params = ScheduleOp::weight_params(schedule),
            elems = schedule.buffer_elems(),
            reuse = self.config.reuse_factor,
            period = self.config.clock_period_ns,
            samples = self.config.mc_samples,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_models::{zoo, ModelConfig, NetworkSpec};
    use bnn_quant::FixedPointFormat;
    use bnn_tensor::rng::Xoshiro256StarStar;
    use bnn_tensor::Tensor;

    fn spec() -> NetworkSpec {
        zoo::lenet5(
            &ModelConfig::mnist()
                .with_resolution(10, 10)
                .with_width_divisor(8)
                .with_classes(4),
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap()
    }

    fn calibrated() -> CalibratedNetwork {
        let net = spec().build(3).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let calib = Tensor::randn(&[6, 1, 10, 10], &mut rng);
        CalibratedNetwork::calibrate(&net, &calib).unwrap()
    }

    #[test]
    fn lowered_design_emits_per_tensor_types_and_integer_weights() {
        let calibrated = calibrated();
        let config =
            HlsConfig::new("lenet_lowered").with_format(FixedPointFormat::new(8, 3).unwrap());
        let design = LoweredDesign::generate(&calibrated, &config).unwrap();
        let defines = design.project().file("firmware/defines.h").unwrap();
        assert!(defines.contains("typedef ap_fixed<8,"));
        assert!(defines.contains("input_t"));
        assert!(defines.contains("v0_t"));
        assert!(defines.contains("exit0_out_t"));
        assert!(defines.contains("#define NUM_EXITS 2"));

        let weights = design.project().file("firmware/weights/weights.h").unwrap();
        assert!(weights.contains("ap_int<8> w0["));
        assert!(weights.contains("ap_int<48> b0["));
        // Integer codes, not float literals: no decimal points in arrays.
        assert!(weights.contains("scale 2^-"));

        let cpp = design.project().file("firmware/lenet_lowered.cpp").unwrap();
        assert!(cpp.contains("#pragma HLS DATAFLOW"));
        assert!(cpp.contains("nnet::conv2d<input_t, v0_t, config0>"));
        assert!(cpp.contains("// ---- exit 0"));
        assert!(cpp.contains("nnet::write_logits<exit0_out_t, N_CLASSES>"));
        assert_eq!(
            cpp.matches("nnet::").count() - design.schedule().exits.len(),
            design.summary().steps
        );
    }

    #[test]
    fn summary_matches_schedule_totals() {
        let calibrated = calibrated();
        let config = HlsConfig::new("p").with_format(FixedPointFormat::new(8, 3).unwrap());
        let design = LoweredDesign::generate(&calibrated, &config).unwrap();
        let s = design.schedule();
        assert_eq!(design.summary().steps, s.num_steps());
        assert_eq!(design.summary().macs, ScheduleOp::total_macs(s));
        assert_eq!(design.summary().buffer_elems, s.buffer_elems());
        assert!(design.summary().macs > 0);
        assert!(design.summary().pipeline_depth <= design.summary().steps);
    }

    #[test]
    fn wide_format_is_a_typed_unsupported_error() {
        let calibrated = calibrated();
        let config = HlsConfig::new("p").with_format(FixedPointFormat::new(24, 8).unwrap());
        match LoweredDesign::generate(&calibrated, &config) {
            Err(HlsError::Unsupported(msg)) => assert!(msg.contains("16")),
            other => panic!("expected HlsError::Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn empty_project_name_is_rejected() {
        let calibrated = calibrated();
        let config = HlsConfig::new("").with_format(FixedPointFormat::new(8, 3).unwrap());
        assert!(matches!(
            LoweredDesign::generate(&calibrated, &config),
            Err(HlsError::InvalidConfig(_))
        ));
    }

    #[test]
    fn defines_carry_fixed_point_type_and_mc_parameters() {
        let config = HlsConfig::new("p")
            .with_format(FixedPointFormat::new(8, 3).unwrap())
            .with_mc_samples(6);
        let design = LoweredDesign::generate(&calibrated(), &config).unwrap();
        let defines = design.project().file("firmware/defines.h").unwrap();
        // One 8-bit typedef per tensor: the input plus every step output.
        assert_eq!(
            defines.matches("typedef ap_fixed<8,").count(),
            design.summary().steps + 1
        );
        assert_eq!(
            defines.matches("typedef ap_fixed<").count(),
            design.summary().steps + 1
        );
        assert!(defines.contains("#define MC_SAMPLES 6"));
        assert!(defines.contains("#define NUM_EXITS 2"));
        assert!(defines.contains("#define N_CLASSES 4"));
        assert!(defines.contains("#define INPUT_SIZE 100"));
        assert!(defines.contains(&format!(
            "#define ARENA_ELEMS {}",
            design.summary().buffer_elems
        )));
    }

    #[test]
    fn weights_header_counts_parameters() {
        let config = HlsConfig::new("p").with_format(FixedPointFormat::new(8, 3).unwrap());
        let design = LoweredDesign::generate(&calibrated(), &config).unwrap();
        let params = spec().param_count();
        assert_eq!(design.summary().weight_params, params);
        let weights = design.project().file("firmware/weights/weights.h").unwrap();
        assert!(weights.contains(&format!("total parameters: {params}")));
        // The declared array sizes and the emitted codes both add up to the
        // parameter count.
        let declared: usize = weights
            .lines()
            .filter(|l| l.starts_with("static const "))
            .map(|l| {
                let open = l.find('[').unwrap();
                let close = l.find(']').unwrap();
                l[open + 1..close].parse::<usize>().unwrap()
            })
            .sum();
        assert_eq!(declared, params);
        let emitted: usize = weights
            .lines()
            .filter(|l| l.starts_with("    "))
            .map(|l| l.matches(',').count())
            .sum();
        assert_eq!(emitted, params);
    }

    #[test]
    fn parameters_declare_one_config_per_instantiated_step() {
        let config = HlsConfig::new("p").with_format(FixedPointFormat::new(8, 3).unwrap());
        let design = LoweredDesign::generate(&calibrated(), &config).unwrap();
        let parameters = design.project().file("firmware/parameters.h").unwrap();
        let cpp = design.project().file("firmware/p.cpp").unwrap();
        let steps = design.summary().steps;
        assert_eq!(parameters.matches("struct config").count(), steps);
        for k in 0..steps {
            assert!(parameters.contains(&format!("struct config{k} {{")), "{k}");
            assert_eq!(cpp.matches(&format!(", config{k}>(")).count(), 1, "{k}");
        }
        // The header declares one logits port per exit.
        let header = design.project().file("firmware/p.h").unwrap();
        assert!(header.contains("exit0_out_t exit0_logits[N_CLASSES]"));
        assert!(header.contains("exit1_out_t exit1_logits[N_CLASSES]"));
        assert!(!header.contains("exit2_logits"));
    }
}
