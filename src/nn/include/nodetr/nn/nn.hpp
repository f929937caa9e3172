// Umbrella header for the nodetr::nn module.
#pragma once

#include "nodetr/nn/activations.hpp"
#include "nodetr/nn/attention.hpp"
#include "nodetr/nn/conv_layers.hpp"
#include "nodetr/nn/dropout.hpp"
#include "nodetr/nn/linear.hpp"
#include "nodetr/nn/mhsa_block.hpp"
#include "nodetr/nn/module.hpp"
#include "nodetr/nn/norm.hpp"
#include "nodetr/nn/pool.hpp"
#include "nodetr/nn/posenc.hpp"
#include "nodetr/nn/residual.hpp"
#include "nodetr/nn/sequential.hpp"
#include "nodetr/nn/summary.hpp"
