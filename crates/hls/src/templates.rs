//! HLS C++ and Tcl templates.
//!
//! The fixed parts of an emitted project, rendered from the [`HlsConfig`]
//! alone: the custom Monte-Carlo Dropout header the paper adds to hls4ml's
//! `nnet_utils` (Algorithm 1) and the Vivado-HLS build script. Everything
//! that depends on the network is rendered by [`crate::lowered`].

use crate::config::HlsConfig;
use bnn_hw::MappingStrategy;

/// The custom MCD layer header implementing the paper's Algorithm 1.
///
/// The generated function:
/// 1. iterates over the dropout buffer with `#pragma HLS PIPELINE II=1`,
/// 2. draws a uniform random number from a free-running 32-bit LFSR,
/// 3. zeroes the element when `uniform_random > keep_rate`,
/// 4. multiplies the kept element by `keep_rate` (the paper's scaling; the
///    framework folds the matching `1/keep_rate` factor into the next layer's
///    weights so the algorithmic semantics match inverted dropout).
pub fn mc_dropout_header(config: &HlsConfig) -> String {
    let data_t = config.cpp_type();
    format!(
        r#"#ifndef NNET_MC_DROPOUT_H_
#define NNET_MC_DROPOUT_H_

#include "ap_fixed.h"
#include "nnet_common.h"

namespace nnet {{

struct mc_dropout_config {{
    static const unsigned dropout_size = 10;
    static const unsigned lfsr_seed = 0xACE1u;
}};

// 32-bit Fibonacci LFSR (taps 32, 22, 2, 1): one uniform word per call.
inline ap_uint<32> lfsr32_next(ap_uint<32> &state) {{
#pragma HLS INLINE
    ap_uint<1> bit = state[0] ^ state[10] ^ state[30] ^ state[31];
    state = (state >> 1) | (ap_uint<32>(bit) << 31);
    return state;
}}

// Monte-Carlo Dropout layer (Algorithm 1 of the paper).
//   Input : input[dropout_size], keep_rate
//   Output: output[dropout_size]
template<class data_T, class res_T, typename CONFIG_T>
void mc_dropout(
    hls::stream<data_T> &input,
    hls::stream<res_T>  &output,
    {data_t} keep_rate
) {{
    static ap_uint<32> lfsr_state = CONFIG_T::lfsr_seed;

DropoutLoop:
    for (unsigned i = 0; i < CONFIG_T::dropout_size; i++) {{
#pragma HLS PIPELINE II=1
        data_T temp = input.read();
        ap_uint<32> raw = lfsr32_next(lfsr_state);
        {data_t} uniform_random;
        uniform_random.range() = raw.range(31, 32 - uniform_random.width);
        if (uniform_random > keep_rate) {{
            temp = 0;
        }}
        output.write(temp * keep_rate);
    }}
}}

}} // namespace nnet

#endif
"#
    )
}

/// The Vivado-HLS build script: C-synthesis of the top function at the
/// configured part and clock, exported as an IP-catalog core.
pub(crate) fn build_tcl(config: &HlsConfig) -> String {
    let engines = match config.mapping {
        MappingStrategy::Spatial => "spatial",
        MappingStrategy::Temporal => "temporal",
        MappingStrategy::Hybrid { .. } => "hybrid",
    };
    format!(
        r#"# Auto-generated Vivado-HLS build script (Phase 4).
open_project {name}_prj
set_top {name}
add_files firmware/{name}.cpp -cflags "-Ifirmware/nnet_utils"
open_solution "solution1"
set_part {{{part}}}
create_clock -period {period} -name default
config_schedule -enable_dsp_full_reg
# mapping strategy: {engines}, reuse factor: {reuse}
csynth_design
export_design -format ip_catalog
exit
"#,
        name = config.project_name,
        part = config.part,
        period = config.clock_period_ns,
        reuse = config.reuse_factor,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcd_header_reproduces_algorithm_1() {
        let header = mc_dropout_header(&HlsConfig::new("p"));
        // Pipelined loop over the dropout buffer.
        assert!(header.contains("#pragma HLS PIPELINE II=1"));
        assert!(header.contains("for (unsigned i = 0; i < CONFIG_T::dropout_size"));
        // Uniform RNG and keep-rate comparison and multiplication.
        assert!(header.contains("lfsr32_next"));
        assert!(header.contains("if (uniform_random > keep_rate)"));
        assert!(header.contains("temp = 0"));
        assert!(header.contains("output.write(temp * keep_rate)"));
        // Uses the configured fixed-point type.
        assert!(header.contains("ap_fixed<16,6>"));
    }

    #[test]
    fn mcd_header_respects_bitwidth() {
        let cfg = HlsConfig::new("p").with_format(bnn_quant::FixedPointFormat::new(8, 3).unwrap());
        let header = mc_dropout_header(&cfg);
        assert!(header.contains("ap_fixed<8,3>"));
    }

    #[test]
    fn tcl_targets_configured_part_and_clock() {
        let mut cfg = HlsConfig::new("bayes_top")
            .with_reuse_factor(32)
            .with_mapping(MappingStrategy::Temporal);
        cfg.part = "xc7z020clg400-1".into();
        cfg.clock_period_ns = 4.0;
        let tcl = build_tcl(&cfg);
        assert!(tcl.contains("open_project bayes_top_prj"));
        assert!(tcl.contains("set_top bayes_top"));
        assert!(tcl.contains("add_files firmware/bayes_top.cpp"));
        assert!(tcl.contains("set_part {xc7z020clg400-1}"));
        assert!(tcl.contains("create_clock -period 4 "));
        assert!(tcl.contains("# mapping strategy: temporal, reuse factor: 32"));
        assert!(tcl.contains("csynth_design"));
        assert!(tcl.contains("export_design -format ip_catalog"));
    }
}
