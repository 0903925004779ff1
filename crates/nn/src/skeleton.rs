//! The step compiler: one constant-free pass from a multi-exit network's
//! lowered graphs to a flat step list over a slot arena.
//!
//! Both number formats of the one compiled plan runtime (`bnn_models::Plan`)
//! — the float `bnn_models::MultiExitPlan` and the integer
//! `bnn_quant::QuantPlan` — are built by [`compile`]; the plan executes the
//! [`Skeleton`] it returns as it is. The compiler walks the backbone blocks
//! in execution order, then each exit branch from the block it attaches to,
//! and decides everything that does not depend on the number format:
//!
//! * per-sample dims of every value (with the shape checks of each op);
//! * one [`ScheduleStep`] per op, with its static `unit_ops`;
//! * block bounds, exit ranges and the scratch units of the largest
//!   convolution, accumulator and MC-dropout mask ([`ScratchUnits`]);
//! * arena slots: liveness over the flat list with free-list reuse. Block
//!   boundary values are pinned (exit branches and the adaptive walker
//!   re-read them), `Flatten` aliases its input, element-wise
//!   steps (ReLU, batch norm, MC dropout) run in place when their source
//!   dies there. A residual block flattens to main ‖ shortcut ‖ merge, and
//!   the merge (`relu(main + shortcut)`) reads both paths.
//!
//! A plan supplies only its constants and kernels through [`Attach`]: the
//! compiler calls [`Attach::step`] once per step, in flat step order
//! (backbone, then exits in attachment order; a residual's children before
//! its merge), so a hook can pair step `n` with the `n`-th entry of any
//! per-step record — calibration records ranges that way, and the integer
//! plan consumes them in that order. It threads one per-value annotation
//! ([`Attach::Note`]) along the data flow — the integer plan's `QuantParams`,
//! `()` for the float plan.

use crate::lowering::LayerLowering;
use crate::plan::MaskGranularity;
use crate::NnError;
use bnn_tensor::linalg::ConvGeometry;
use std::ops::Range;

/// One flattened step: a plan's op plus its arena slots and static
/// per-sample shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStep<Op> {
    /// The step's arithmetic and folded constants.
    pub op: Op,
    /// Source slot (the main path of a merge).
    pub src: usize,
    /// Second source slot (the shortcut path of a merge).
    pub src2: Option<usize>,
    /// Destination slot (may equal `src` for in-place elementwise steps).
    pub dst: usize,
    /// Per-sample dims of the source activation (batch axis stripped).
    pub in_dims: Vec<usize>,
    /// Per-sample dims of the output activation.
    pub out_dims: Vec<usize>,
    /// Static per-sample op estimate: multiply-accumulates for conv/dense,
    /// window taps for pooling, touched input elements for global pooling,
    /// touched output elements for element-wise steps and two per element
    /// for a residual merge (add, then relu).
    pub unit_ops: u64,
}

/// The per-sample `(step count, unit ops)` of one run of `steps`.
pub fn steps_cost<Op>(steps: &[ScheduleStep<Op>]) -> (u64, u64) {
    (steps.len() as u64, steps.iter().map(|s| s.unit_ops).sum())
}

/// One lowered op a plan attaches its constants to (see [`Attach::step`]).
#[derive(Debug)]
pub struct Node<'a, N> {
    /// The op: a leaf lowering, or the `Residual` whose merge this is.
    pub lowering: &'a LayerLowering,
    /// Annotation of the input value (the main path's output for a merge).
    pub note: N,
    /// Annotation of the shortcut path's output, for a merge.
    pub shortcut: Option<N>,
}

/// What a plan family attaches to the step skeleton.
pub trait Attach {
    /// The plan's step op.
    type Op;
    /// The per-value annotation threaded along the data flow.
    type Note: Copy;
    /// The plan's error type (skeleton faults arrive as [`NnError`]).
    type Error: From<NnError>;

    /// The op and output annotation of one step: every lowering except
    /// `Sequence` and `Flatten` (shape-only ops, whose output aliases their
    /// input and keeps its annotation), with a `Residual`
    /// standing for its merge (called after both of its paths).
    ///
    /// # Errors
    ///
    /// Whatever the plan cannot attach.
    fn step(&mut self, node: Node<'_, Self::Note>) -> Result<(Self::Op, Self::Note), Self::Error>;
}

/// Per-sample element counts of the scratch buffers the steps share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchUnits {
    /// Largest convolution column matrix (`in_c·k·k × out_h·out_w`).
    pub cols: usize,
    /// Largest conv/dense accumulator (`out_c·out_h·out_w`, `out_f`).
    pub acc: usize,
    /// Largest per-sample MC-dropout mask (one draw per channel of an NCHW
    /// value, per element otherwise).
    pub mask: usize,
}

/// Where each backbone block ends: the segmentation of the adaptive walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockLayout {
    /// Backbone step count after each block (`backbone[..ends[b]]` runs
    /// blocks `0..=b`).
    pub ends: Vec<usize>,
    /// The pinned slot holding each block's output.
    pub slots: Vec<usize>,
    /// Per-sample dims of each block's output (their product is the row
    /// unit of batch compaction).
    pub dims: Vec<Vec<usize>>,
}

impl BlockLayout {
    /// Backbone step range of `blocks`.
    pub fn steps(&self, blocks: Range<usize>) -> Range<usize> {
        let bound = |b: usize| b.checked_sub(1).map_or(0, |b| self.ends[b]);
        bound(blocks.start)..bound(blocks.end)
    }

    /// Copies row `from` of `block`'s output over row `to` in the arena.
    pub fn move_row<T: Copy>(&self, slots: &mut [Vec<T>], block: usize, from: usize, to: usize) {
        let unit: usize = self.dims[block].iter().product();
        slots[self.slots[block]].copy_within(from * unit..(from + 1) * unit, to * unit);
    }
}

/// One exit branch of a skeleton, in attachment order.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitSteps<Op, N> {
    /// The exit's steps, executed after its block.
    pub steps: Vec<ScheduleStep<Op>>,
    /// Slot holding the exit's output.
    pub out_slot: usize,
    /// Annotation of the exit's output.
    pub out_note: N,
    /// Per-sample output dims.
    pub out_dims: Vec<usize>,
    /// Backbone block this exit reads from.
    pub after_block: usize,
}

/// A compiled step list: backbone, exits and the arena plan. See the
/// [module documentation](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Skeleton<Op, N> {
    /// Per-sample input dims (batch axis stripped).
    pub in_dims: Vec<usize>,
    /// Annotation of the input value (the integer plan's input format).
    pub in_note: N,
    /// Arena slot the input batch is written to.
    pub input_slot: usize,
    /// Backbone steps in execution order.
    pub backbone: Vec<ScheduleStep<Op>>,
    /// Exit branches in attachment order.
    pub exits: Vec<ExitSteps<Op, N>>,
    /// Per-slot per-sample element capacity.
    pub slot_elems: Vec<usize>,
    /// Block boundaries of the backbone.
    pub blocks: BlockLayout,
    /// Shared scratch capacities.
    pub scratch: ScratchUnits,
}

impl<Op, N> Skeleton<Op, N> {
    /// Flat index of exit `exit`'s first step: exits follow the backbone
    /// and every earlier exit, the order MC-dropout streams are assigned in.
    pub fn exit_start(&self, exit: usize) -> usize {
        self.backbone.len()
            + self.exits[..exit]
                .iter()
                .map(|e| e.steps.len())
                .sum::<usize>()
    }

    /// Iterates every step: backbone first, then exits in attachment order.
    pub fn steps(&self) -> impl Iterator<Item = &ScheduleStep<Op>> {
        self.backbone
            .iter()
            .chain(self.exits.iter().flat_map(|e| e.steps.iter()))
    }

    /// Total number of steps (backbone plus all exits).
    pub fn num_steps(&self) -> usize {
        self.exit_start(self.exits.len())
    }

    /// Number of predicted classes: the per-sample output width every exit
    /// shares ([`compile`] rejects exits that disagree), 0 without exits.
    pub fn classes(&self) -> usize {
        self.exits
            .first()
            .map_or(0, |e| e.out_dims.iter().product())
    }

    /// Total per-sample unit ops over every step (the plans' `fixed_cost`
    /// unit before batch/pass scaling).
    pub fn total_unit_ops(&self) -> u64 {
        self.steps().map(|s| s.unit_ops).sum()
    }

    /// Total per-sample activation buffer elements (sum of slot capacities).
    pub fn buffer_elems(&self) -> usize {
        self.slot_elems.iter().sum()
    }

    /// Depth of the longest step chain one input flows through: the
    /// backbone plus the deepest exit branch.
    pub fn pipeline_depth(&self) -> usize {
        self.backbone.len() + self.exits.iter().map(|e| e.steps.len()).max().unwrap_or(0)
    }
}

/// A value of the walk: every step output is a fresh value, and `Flatten`
/// aliases its input (same storage, new shape).
struct Value<N> {
    dims: Vec<usize>,
    alias_of: Option<usize>,
    pinned: bool,
    note: N,
}

/// The walk in progress: steps over value ids, before slot assignment.
struct Walk<Op, N> {
    values: Vec<Value<N>>,
    steps: Vec<ScheduleStep<Op>>,
    /// Whether each step may run in place (element-wise ops).
    in_place: Vec<bool>,
    scratch: ScratchUnits,
    /// `(value, first, end)`: a residual operand that steps `first..end`
    /// must not overwrite (checked in debug builds once slots are assigned).
    pending: Vec<(usize, usize, usize)>,
}

impl<Op, N: Copy> Walk<Op, N> {
    fn root(&self, v: usize) -> usize {
        self.values[v].alias_of.unwrap_or(v)
    }

    fn new_value(&mut self, dims: Vec<usize>, alias_of: Option<usize>, note: N) -> usize {
        self.values.push(Value {
            dims,
            alias_of,
            pinned: false,
            note,
        });
        self.values.len() - 1
    }

    fn push(
        &mut self,
        (op, note): (Op, N),
        src: usize,
        src2: Option<usize>,
        out_dims: Vec<usize>,
        unit_ops: u64,
        in_place: bool,
    ) -> usize {
        let dst = self.new_value(out_dims.clone(), None, note);
        self.in_place.push(in_place);
        self.steps.push(ScheduleStep {
            op,
            src,
            src2,
            dst,
            in_dims: self.values[src].dims.clone(),
            out_dims,
            unit_ops,
        });
        dst
    }

    /// Emits the step(s) of one lowered op, advancing `cur`.
    fn emit<A: Attach<Op = Op, Note = N>>(
        &mut self,
        hook: &mut A,
        lowering: &LayerLowering,
        cur: &mut usize,
    ) -> Result<(), A::Error> {
        let in_dims = self.values[*cur].dims.clone();
        let in_elems: usize = in_dims.iter().product();
        let bad = |what: String| NnError::InvalidConfig(format!("{what}, got {in_dims:?}"));
        let note = self.values[*cur].note;
        let (out_dims, unit_ops) = match lowering {
            LayerLowering::Sequence(children) => {
                for child in children {
                    self.emit(hook, child, cur)?;
                }
                return Ok(());
            }
            LayerLowering::Flatten => {
                let root = self.root(*cur);
                *cur = self.new_value(vec![in_elems], Some(root), note);
                return Ok(());
            }
            LayerLowering::Residual { main, shortcut } => {
                let (v_in, first) = (*cur, self.steps.len());
                let mut v_main = v_in;
                for child in main {
                    self.emit(hook, child, &mut v_main)?;
                }
                let main_end = self.steps.len();
                let mut v_short = v_in;
                for child in shortcut {
                    self.emit(hook, child, &mut v_short)?;
                }
                let out_dims = self.values[v_main].dims.clone();
                if self.values[v_short].dims != out_dims {
                    return Err(NnError::InvalidConfig(format!(
                        "residual paths disagree: main {out_dims:?}, shortcut {:?}",
                        self.values[v_short].dims
                    ))
                    .into());
                }
                // The block input survives the main path (its next reader is
                // the first shortcut step, or the merge); the main output
                // survives the shortcut.
                self.pending.push((v_in, first, main_end));
                self.pending.push((v_main, main_end, self.steps.len()));
                let attached = hook.step(Node {
                    lowering,
                    note: self.values[v_main].note,
                    shortcut: Some(self.values[v_short].note),
                })?;
                let unit_ops = 2 * out_dims.iter().product::<usize>() as u64;
                *cur = self.push(attached, v_main, Some(v_short), out_dims, unit_ops, false);
                return Ok(());
            }
            LayerLowering::Conv2d {
                weight,
                stride,
                padding,
                ..
            } => {
                let (out_c, in_c, kernel) = match weight.dims() {
                    &[o, i, k, _] => (o, i, k),
                    d => return Err(NnError::InvalidConfig(format!("conv weight {d:?}")).into()),
                };
                if in_dims.len() != 3 || in_dims[0] != in_c {
                    return Err(bad(format!("conv expects per-sample [{in_c}, h, w]")).into());
                }
                let geom = ConvGeometry::square(in_dims[1], in_dims[2], kernel, *stride, *padding);
                let plane = geom.out_h() * geom.out_w();
                self.scratch.cols = self.scratch.cols.max(in_c * kernel * kernel * plane);
                self.scratch.acc = self.scratch.acc.max(out_c * plane);
                let macs = in_c * kernel * kernel * out_c * plane;
                (vec![out_c, geom.out_h(), geom.out_w()], macs as u64)
            }
            LayerLowering::Dense { weight, .. } => {
                let (in_f, out_f) = match weight.dims() {
                    &[i, o] => (i, o),
                    d => return Err(NnError::InvalidConfig(format!("dense weight {d:?}")).into()),
                };
                if in_dims != [in_f] {
                    return Err(bad(format!("dense expects per-sample [{in_f}]")).into());
                }
                self.scratch.acc = self.scratch.acc.max(out_f);
                (vec![out_f], (in_f * out_f) as u64)
            }
            LayerLowering::MaxPool2d { kernel, stride } => {
                if in_dims.len() != 3 {
                    return Err(bad("pooling expects per-sample [c, h, w]".into()).into());
                }
                let geom = ConvGeometry::square(in_dims[1], in_dims[2], *kernel, *stride, 0);
                let out_dims = vec![in_dims[0], geom.out_h(), geom.out_w()];
                let taps = kernel * kernel * out_dims.iter().product::<usize>();
                (out_dims, taps as u64)
            }
            LayerLowering::GlobalAvgPool2d => {
                if in_dims.len() != 3 {
                    return Err(bad("global pooling expects per-sample [c, h, w]".into()).into());
                }
                (vec![in_dims[0]], in_elems as u64)
            }
            LayerLowering::Affine(bn) => {
                if in_dims.len() != 3 || in_dims[0] != bn.gamma.len() {
                    let c = bn.gamma.len();
                    return Err(bad(format!("batch norm expects per-sample [{c}, h, w]")).into());
                }
                (in_dims.clone(), in_elems as u64)
            }
            LayerLowering::McDropout { .. } => {
                let (draws, _) = MaskGranularity::PerSample.draws(&in_dims, 1);
                self.scratch.mask = self.scratch.mask.max(draws);
                (in_dims.clone(), in_elems as u64)
            }
            LayerLowering::Relu => (in_dims.clone(), in_elems as u64),
        };
        let attached = hook.step(Node {
            lowering,
            note,
            shortcut: None,
        })?;
        // Element-wise steps may run in place when their input dies there.
        let in_place = matches!(
            lowering,
            LayerLowering::Relu | LayerLowering::Affine(_) | LayerLowering::McDropout { .. }
        );
        *cur = self.push(attached, *cur, None, out_dims, unit_ops, in_place);
        Ok(())
    }

    /// Liveness over the flat step list, then linear-scan slot assignment
    /// with free-list (ping-pong) reuse: the slot of every root value and
    /// the per-sample capacity of every slot.
    fn assign_slots(&self, input: usize) -> Slots {
        let mut last_use = vec![usize::MAX; self.values.len()];
        for (j, step) in self.steps.iter().enumerate() {
            last_use[self.root(step.src)] = j;
            if let Some(s2) = step.src2 {
                last_use[self.root(s2)] = j;
            }
        }
        let mut slots = Slots {
            of: vec![usize::MAX; self.values.len()],
            elems: Vec::new(),
            free: Vec::new(),
        };
        slots.assign(input, self.values[input].dims.iter().product());
        for (j, step) in self.steps.iter().enumerate() {
            let (src, dst) = (self.root(step.src), step.dst);
            let out_elems = step.out_dims.iter().product();
            let dies = |v: usize| last_use[v] == j && !self.values[v].pinned;
            if self.in_place[j] && dies(src) {
                let slot = slots.of[src];
                slots.of[dst] = slot;
                slots.elems[slot] = slots.elems[slot].max(out_elems);
                continue;
            }
            let dst_slot = slots.assign(dst, out_elems);
            let mut dead = [None, None];
            if dies(src) && slots.of[src] != dst_slot {
                dead[0] = Some(slots.of[src]);
            }
            if let Some(s2) = step.src2.map(|s| self.root(s)) {
                if dies(s2) && slots.of[s2] != dst_slot && Some(slots.of[s2]) != dead[0] {
                    dead[1] = Some(slots.of[s2]);
                }
            }
            slots.free.extend(dead.into_iter().flatten());
        }
        slots
    }
}

/// The slot assignment in progress.
struct Slots {
    /// Slot of each root value.
    of: Vec<usize>,
    /// Per-sample capacity of each slot.
    elems: Vec<usize>,
    /// Slots whose value has died, reused last-freed first.
    free: Vec<usize>,
}

impl Slots {
    fn assign(&mut self, value: usize, elems: usize) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.elems.push(0);
            self.elems.len() - 1
        });
        self.of[value] = slot;
        self.elems[slot] = self.elems[slot].max(elems);
        slot
    }
}

/// Compiles the step skeleton of a multi-exit network: `blocks` in
/// execution order, `exits` as `(after_block, branch)` in attachment order,
/// per-sample input dims `in_dims` annotated `in_note`. See the
/// [module documentation](self).
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] (through `A::Error`) on a shape
/// mismatch, an exit after a missing block or exits whose output widths
/// (class counts) disagree, and propagates the hook's errors.
pub fn compile<'a, A: Attach>(
    blocks: impl IntoIterator<Item = &'a LayerLowering>,
    exits: impl IntoIterator<Item = (usize, &'a LayerLowering)>,
    in_dims: &[usize],
    in_note: A::Note,
    hook: &mut A,
) -> Result<Skeleton<A::Op, A::Note>, A::Error> {
    let mut walk = Walk {
        values: Vec::new(),
        steps: Vec::new(),
        in_place: Vec::new(),
        scratch: ScratchUnits::default(),
        pending: Vec::new(),
    };
    let input = walk.new_value(in_dims.to_vec(), None, in_note);

    // Backbone: the value live at each block boundary is pinned.
    let mut cur = input;
    let mut block_values = Vec::new();
    let mut ends = Vec::new();
    for lowering in blocks {
        walk.emit(hook, lowering, &mut cur)?;
        let root = walk.root(cur);
        walk.values[root].pinned = true;
        block_values.push(cur);
        ends.push(walk.steps.len());
    }

    // Exit branches, attachment order.
    let mut exit_meta: Vec<(usize, usize, usize)> = Vec::new();
    for (e, (after_block, lowering)) in exits.into_iter().enumerate() {
        let Some(&from) = block_values.get(after_block) else {
            let msg = format!("exit {e} attaches after missing block {after_block}");
            return Err(NnError::InvalidConfig(msg).into());
        };
        let (start, mut exit_cur) = (walk.steps.len(), from);
        walk.emit(hook, lowering, &mut exit_cur)?;
        let width: usize = walk.values[exit_cur].dims.iter().product();
        if let Some(&(_, first, _)) = exit_meta.first() {
            let classes: usize = walk.values[first].dims.iter().product();
            if width != classes {
                let msg = format!("exit {e} predicts {width} classes, exit 0 predicts {classes}");
                return Err(NnError::InvalidConfig(msg).into());
            }
        }
        exit_meta.push((start, exit_cur, after_block));
    }

    let slots = walk.assign_slots(input);
    let mut steps = std::mem::take(&mut walk.steps);
    let slot = |v: usize| slots.of[walk.root(v)];
    for step in &mut steps {
        step.src = slot(step.src);
        step.src2 = step.src2.map(slot);
        step.dst = slot(step.dst);
    }
    debug_assert!(
        walk.pending
            .iter()
            .all(|&(value, first, end)| steps[first..end]
                .iter()
                .all(|step| step.dst != slot(value))),
        "a plan step overwrites a pending residual operand"
    );

    // Exit branches split off the tail of the flat list, last first.
    let mut exit_steps = Vec::with_capacity(exit_meta.len());
    for &(start, out, after_block) in exit_meta.iter().rev() {
        exit_steps.push(ExitSteps {
            steps: steps.split_off(start),
            out_slot: slot(out),
            out_note: walk.values[out].note,
            out_dims: walk.values[out].dims.clone(),
            after_block,
        });
    }
    exit_steps.reverse();
    let blocks = BlockLayout {
        slots: block_values.iter().map(|&v| slot(v)).collect(),
        dims: (block_values.iter())
            .map(|&v| walk.values[v].dims.clone())
            .collect(),
        ends,
    };
    Ok(Skeleton {
        in_dims: in_dims.to_vec(),
        in_note,
        input_slot: slot(input),
        backbone: steps,
        exits: exit_steps,
        slot_elems: slots.elems,
        blocks,
        scratch: walk.scratch,
    })
}
