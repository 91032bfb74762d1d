#pragma once
// The attempt engine lives in attempt_engine.hpp. This name stays only
// because the benchmark package (perfledger/src/service_batch.cpp) includes
// it; delete it with that include.
#include "attempt_engine.hpp"
