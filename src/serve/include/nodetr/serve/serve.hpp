// Umbrella header for nodetr::serve — the batched inference engine.
#pragma once

#include "nodetr/serve/admission.hpp"
#include "nodetr/serve/circuit_breaker.hpp"
#include "nodetr/serve/engine.hpp"
#include "nodetr/serve/errors.hpp"
#include "nodetr/serve/hot_swap.hpp"
#include "nodetr/serve/micro_batcher.hpp"
#include "nodetr/serve/model_registry.hpp"
#include "nodetr/serve/request_queue.hpp"
#include "nodetr/serve/router.hpp"
#include "nodetr/serve/slo.hpp"
