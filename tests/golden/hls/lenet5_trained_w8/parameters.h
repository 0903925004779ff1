#ifndef PARAMETERS_H_
#define PARAMETERS_H_

#include "defines.h"
#include "weights/weights.h"

// step 0: conv2d
struct config0 {
    static const unsigned in_c = 1;
    static const unsigned out_c = 1;
    static const unsigned kernel = 5;
    static const unsigned stride = 1;
    static const unsigned padding = 2;
    static const unsigned in_h = 10;
    static const unsigned in_w = 10;
    static const unsigned out_h = 10;
    static const unsigned out_w = 10;
    static const int requant_shift = 8;
    static const unsigned reuse_factor = 32;
};

// step 1: relu
struct config1 {
    static const unsigned n_elems = 100;
};

// step 2: max_pool2d
struct config2 {
    static const unsigned channels = 1;
    static const unsigned in_h = 10;
    static const unsigned in_w = 10;
    static const unsigned out_h = 5;
    static const unsigned out_w = 5;
    static const unsigned kernel = 2;
    static const unsigned stride = 2;
};

// step 3: conv2d
struct config3 {
    static const unsigned in_c = 1;
    static const unsigned out_c = 2;
    static const unsigned kernel = 5;
    static const unsigned stride = 1;
    static const unsigned padding = 0;
    static const unsigned in_h = 5;
    static const unsigned in_w = 5;
    static const unsigned out_h = 1;
    static const unsigned out_w = 1;
    static const int requant_shift = 7;
    static const unsigned reuse_factor = 32;
};

// step 4: relu
struct config4 {
    static const unsigned n_elems = 2;
};

// step 5: mc_dropout
struct config5 {
    static const unsigned n_elems = 25;
    static const unsigned filters = 1;
    static const unsigned plane = 25;
    // dropout rate 0.25; kept values scale by scale_q * 2^-12
    static const ap_uint<48> scale_q = 5461;
    static const unsigned mul_frac = 12;
};

// step 6: global_avg_pool2d
struct config6 {
    static const unsigned channels = 1;
    static const unsigned in_h = 5;
    static const unsigned in_w = 5;
};

// step 7: dense
struct config7 {
    static const unsigned in_f = 1;
    static const unsigned out_f = 4;
    static const int requant_shift = 3;
    static const unsigned reuse_factor = 32;
};

// step 8: mc_dropout
struct config8 {
    static const unsigned n_elems = 2;
    static const unsigned filters = 2;
    static const unsigned plane = 1;
    // dropout rate 0.25; kept values scale by scale_q * 2^-12
    static const ap_uint<48> scale_q = 5461;
    static const unsigned mul_frac = 12;
};

// step 9: dense
struct config9 {
    static const unsigned in_f = 2;
    static const unsigned out_f = 15;
    static const int requant_shift = 2;
    static const unsigned reuse_factor = 32;
};

// step 10: relu
struct config10 {
    static const unsigned n_elems = 15;
};

// step 11: dense
struct config11 {
    static const unsigned in_f = 15;
    static const unsigned out_f = 10;
    static const int requant_shift = 7;
    static const unsigned reuse_factor = 32;
};

// step 12: relu
struct config12 {
    static const unsigned n_elems = 10;
};

// step 13: dense
struct config13 {
    static const unsigned in_f = 10;
    static const unsigned out_f = 4;
    static const int requant_shift = 6;
    static const unsigned reuse_factor = 32;
};

#endif
