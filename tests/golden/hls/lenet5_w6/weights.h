#ifndef WEIGHTS_H_
#define WEIGHTS_H_

#include "../defines.h"

// step 0: conv2d weights [out_c=1, in_c*k*k=25], scale 2^-5; bias scale 2^-8
static const ap_int<6> w0[25] = {
    13, 11, -12, -2, -12, 23, -8, -5, 6, -9, 14, -10, -4, 16, 8, -5,
    -9, 4, -4, -11, 0, 14, 6, -12, -24,
};
static const ap_int<48> b0[1] = {
    0,
};

// step 3: conv2d weights [out_c=2, in_c*k*k=25], scale 2^-5; bias scale 2^-7
static const ap_int<6> w3[50] = {
    -11, 4, 2, 4, -9, 0, -1, 7, 4, -2, -13, 17, 6, 12, 4, -5,
    -5, -8, -9, -13, -11, 7, 0, 5, -3, 9, -15, -1, -8, 7, -11, -19,
    -1, 2, 9, 0, 13, 14, 8, 4, 27, -14, 6, 9, -4, -1, 4, 1,
    -10, 6,
};
static const ap_int<48> b3[2] = {
    0, 0,
};

// step 7: dense weights transposed [out_f=4, in_f=1], scale 2^-3; bias scale 2^-5
static const ap_int<6> w7[4] = {
    -2, 7, 1, 21,
};
static const ap_int<48> b7[4] = {
    0, 0, 0, 0,
};

// step 9: dense weights transposed [out_f=15, in_f=2], scale 2^-3; bias scale 2^-5
static const ap_int<6> w9[30] = {
    0, 9, -2, 15, 0, 1, -7, 0, -15, 0, 6, 5, 1, -2, 3, -4,
    -18, 0, 2, 13, -6, -1, -6, 8, 10, -8, 9, 10, -1, -8,
};
static const ap_int<48> b9[15] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
};

// step 11: dense weights transposed [out_f=10, in_f=15], scale 2^-5; bias scale 2^-7
static const ap_int<6> w11[150] = {
    -3, 1, -6, -3, 7, -29, 17, -5, -26, 5, 6, 0, 7, -3, 3, 22,
    -12, -10, -9, 30, 3, -21, 0, -29, -10, 2, -10, 17, -17, -2, 0, -8,
    23, -17, 12, 9, -6, -9, 6, -16, 17, 4, 6, 20, 0, 4, 0, -26,
    -11, 5, -13, 3, 11, -11, 0, 7, -2, -13, -7, 20, -4, -1, -3, -15,
    3, -2, -5, 12, -18, -17, 10, -16, 4, 11, 5, 6, -14, -13, -14, 2,
    11, 11, 22, 2, 22, -19, 5, -2, 16, -9, -18, 1, 6, -7, 7, 6,
    0, -4, 2, -12, 7, 17, 6, -12, -3, -6, 11, 0, 26, 13, 3, 9,
    1, -9, 9, 18, -15, 11, 21, -14, 9, 8, 19, 19, 7, -16, -8, -13,
    -17, -23, 10, 17, 5, 6, 8, -4, -19, -4, -7, -25, 13, 3, 15, -16,
    -14, 11, -7, 16, -7, -7,
};
static const ap_int<48> b11[10] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
};

// step 13: dense weights transposed [out_f=4, in_f=10], scale 2^-4; bias scale 2^-5
static const ap_int<6> w13[40] = {
    11, 1, 17, 0, 0, 1, 1, -3, -14, -7, -11, -9, 13, -1, 13, -1,
    -3, 18, 5, -10, -6, 4, -12, 0, 10, -3, -6, -2, -3, 5, 8, 5,
    11, 3, -6, -2, -5, -11, -3, -1,
};
static const ap_int<48> b13[4] = {
    0, 0, 0, 0,
};

// total parameters: 335 (integer codes; scales are powers of two)
#endif
