#ifndef DEFINES_H_
#define DEFINES_H_

#include "ap_fixed.h"
#include "ap_int.h"

// Per-tensor calibrated fixed-point formats (one typedef per value).
typedef ap_fixed<8,3> input_t; // calibrated input, scale 2^-5
typedef ap_fixed<8,3> v0_t; // step 0 conv2d out, scale 2^-5
typedef ap_fixed<8,3> v1_t; // step 1 relu out, scale 2^-5
typedef ap_fixed<8,3> v2_t; // step 2 max_pool2d out, scale 2^-5
typedef ap_fixed<8,3> v3_t; // step 3 conv2d out, scale 2^-5
typedef ap_fixed<8,3> v4_t; // step 4 relu out, scale 2^-5
typedef ap_fixed<8,3> v5_t; // step 5 mc_dropout out, scale 2^-5
typedef ap_fixed<8,3> v6_t; // step 6 global_avg_pool2d out, scale 2^-5
typedef ap_fixed<8,0> v7_t; // step 7 dense out, scale 2^-8
typedef ap_fixed<8,3> v8_t; // step 8 mc_dropout out, scale 2^-5
typedef ap_fixed<8,0> v9_t; // step 9 dense out, scale 2^-8
typedef ap_fixed<8,0> v10_t; // step 10 relu out, scale 2^-8
typedef ap_fixed<8,1> v11_t; // step 11 dense out, scale 2^-7
typedef ap_fixed<8,1> v12_t; // step 12 relu out, scale 2^-7
typedef ap_fixed<8,0> v13_t; // step 13 dense out, scale 2^-8

typedef v7_t exit0_out_t; // logits of exit 0 (v7)
typedef v13_t exit1_out_t; // logits of exit 1 (v13)

#define NUM_EXITS 2
#define MC_SAMPLES 3
#define N_CLASSES 4
#define INPUT_SIZE 100
#define NUM_SLOTS 5
#define ARENA_ELEMS 250

#endif
