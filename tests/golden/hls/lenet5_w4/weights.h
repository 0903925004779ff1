#ifndef WEIGHTS_H_
#define WEIGHTS_H_

#include "../defines.h"

// step 0: conv2d weights [out_c=1, in_c*k*k=25], scale 2^-3; bias scale 2^-4
static const ap_int<4> w0[25] = {
    3, 3, -3, 0, -3, 6, -2, -1, 2, -2, 4, -3, -1, 4, 2, -1,
    -2, 1, -1, -3, 0, 3, 2, -3, -6,
};
static const ap_int<48> b0[1] = {
    0,
};

// step 3: conv2d weights [out_c=2, in_c*k*k=25], scale 2^-3; bias scale 2^-3
static const ap_int<4> w3[50] = {
    -3, 1, 1, 1, -2, 0, 0, 2, 1, -1, -3, 4, 1, 3, 1, -1,
    -1, -2, -2, -3, -3, 2, 0, 1, -1, 2, -4, 0, -2, 2, -3, -5,
    0, 1, 2, 0, 3, 3, 2, 1, 7, -3, 1, 2, -1, 0, 1, 0,
    -2, 2,
};
static const ap_int<48> b3[2] = {
    0, 0,
};

// step 7: dense weights transposed [out_f=4, in_f=1], scale 2^-1; bias scale 2^-1
static const ap_int<4> w7[4] = {
    0, 2, 0, 5,
};
static const ap_int<48> b7[4] = {
    0, 0, 0, 0,
};

// step 9: dense weights transposed [out_f=15, in_f=2], scale 2^-1; bias scale 2^-1
static const ap_int<4> w9[30] = {
    0, 2, 0, 4, 0, 0, -2, 0, -4, 0, 2, 1, 0, -1, 1, -1,
    -4, 0, 0, 3, -2, 0, -2, 2, 2, -2, 2, 3, 0, -2,
};
static const ap_int<48> b9[15] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
};

// step 11: dense weights transposed [out_f=10, in_f=15], scale 2^-2; bias scale 2^-2
static const ap_int<4> w11[150] = {
    0, 0, -1, 0, 1, -4, 2, -1, -3, 1, 1, 0, 1, 0, 0, 3,
    -1, -1, -1, 4, 0, -3, 0, -4, -1, 0, -1, 2, -2, 0, 0, -1,
    3, -2, 2, 1, -1, -1, 1, -2, 2, 1, 1, 2, 0, 0, 0, -3,
    -1, 1, -2, 0, 1, -1, 0, 1, 0, -2, -1, 2, -1, 0, 0, -2,
    0, 0, -1, 1, -2, -2, 1, -2, 1, 1, 1, 1, -2, -2, -2, 0,
    1, 1, 3, 0, 3, -2, 1, 0, 2, -1, -2, 0, 1, -1, 1, 1,
    0, 0, 0, -1, 1, 2, 1, -1, 0, -1, 1, 0, 3, 2, 0, 1,
    0, -1, 1, 2, -2, 1, 3, -2, 1, 1, 2, 2, 1, -2, -1, -2,
    -2, -3, 1, 2, 1, 1, 1, -1, -2, 0, -1, -3, 2, 0, 2, -2,
    -2, 1, -1, 2, -1, -1,
};
static const ap_int<48> b11[10] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
};

// step 13: dense weights transposed [out_f=4, in_f=10], scale 2^-2; bias scale 2^-2
static const ap_int<4> w13[40] = {
    3, 0, 4, 0, 0, 0, 0, -1, -4, -2, -3, -2, 3, 0, 3, 0,
    -1, 4, 1, -3, -1, 1, -3, 0, 2, -1, -2, 0, -1, 1, 2, 1,
    3, 1, -2, 0, -1, -3, -1, 0,
};
static const ap_int<48> b13[4] = {
    0, 0, 0, 0,
};

// total parameters: 335 (integer codes; scales are powers of two)
#endif
