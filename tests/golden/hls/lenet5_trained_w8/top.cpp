// Auto-generated by the bnn-hls transformation framework (Phase 4,
// lowered-graph backend). Every call below mirrors one step of the compiled
// integer plan; bnn_hls::sim interprets the same schedule as the golden
// C-simulation reference.
#include "lenet5_trained.h"
#include "parameters.h"
#include "nnet_utils/nnet_mc_dropout.h"

void lenet5_trained(
    const input_t input[INPUT_SIZE],
    exit0_out_t exit0_logits[N_CLASSES],
    exit1_out_t exit1_logits[N_CLASSES]
) {
#pragma HLS INTERFACE bram port=input
#pragma HLS DATAFLOW

    // ---- backbone ----
    // step 0: conv2d [1, 10, 10] -> [1, 10, 10]
    v0_t v0[100];
    nnet::conv2d<input_t, v0_t, config0>(input, v0, w0, b0);
    // step 1: relu [1, 10, 10] -> [1, 10, 10]
    v1_t v1[100];
    nnet::relu<v0_t, config1>(v0, v1);
    // step 2: max_pool2d [1, 10, 10] -> [1, 5, 5]
    v2_t v2[25];
    nnet::max_pool2d<v1_t, config2>(v1, v2);
    // step 3: conv2d [1, 5, 5] -> [2, 1, 1]
    v3_t v3[2];
    nnet::conv2d<v2_t, v3_t, config3>(v2, v3, w3, b3);
    // step 4: relu [2, 1, 1] -> [2, 1, 1]
    v4_t v4[2];
    nnet::relu<v3_t, config4>(v3, v4);

    // ---- exit 0 (after block 0) ----
    // step 5: mc_dropout [1, 5, 5] -> [1, 5, 5]
    v5_t v5[25];
    nnet::mc_dropout<v2_t, config5>(v2, v5);
    // step 6: global_avg_pool2d [1, 5, 5] -> [1]
    v6_t v6[1];
    nnet::global_avg_pool2d<v5_t, config6>(v5, v6);
    // step 7: dense [1] -> [4]
    v7_t v7[4];
    nnet::dense<v6_t, v7_t, config7>(v6, v7, w7, b7);
    nnet::write_logits<exit0_out_t, N_CLASSES>(v7, exit0_logits);

    // ---- exit 1 (after block 1) ----
    // step 8: mc_dropout [2, 1, 1] -> [2, 1, 1]
    v8_t v8[2];
    nnet::mc_dropout<v4_t, config8>(v4, v8);
    // step 9: dense [2] -> [15]
    v9_t v9[15];
    nnet::dense<v8_t, v9_t, config9>(v8, v9, w9, b9);
    // step 10: relu [15] -> [15]
    v10_t v10[15];
    nnet::relu<v9_t, config10>(v9, v10);
    // step 11: dense [15] -> [10]
    v11_t v11[10];
    nnet::dense<v10_t, v11_t, config11>(v10, v11, w11, b11);
    // step 12: relu [10] -> [10]
    v12_t v12[10];
    nnet::relu<v11_t, config12>(v11, v12);
    // step 13: dense [10] -> [4]
    v13_t v13[4];
    nnet::dense<v12_t, v13_t, config13>(v12, v13, w13, b13);
    nnet::write_logits<exit1_out_t, N_CLASSES>(v13, exit1_logits);
}
