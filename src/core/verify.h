#ifndef GENBASE_CORE_VERIFY_H_
#define GENBASE_CORE_VERIFY_H_

#include "common/status.h"
#include "core/queries.h"

namespace genbase::core {

/// \brief Tolerant comparison of two query results (expected vs actual).
///
/// Engines compute with different summation orders / kernel variants, so
/// floating-point results match only to a tolerance. Counts must match
/// exactly except where they derive from a floating threshold (Q2's pair
/// count), which gets a tiny relative slack. Q4's `iterations`,
/// `converged` and `method` are not compared: they describe how an engine
/// found the values (dense Gram eigensolve or Lanczos, and how a Lanczos run
/// ended; engines may legitimately differ), not the answer.
genbase::Status CompareQueryResults(const QueryResult& expected,
                                    const QueryResult& actual,
                                    double rel_tol = 1e-6);

}  // namespace genbase::core

#endif  // GENBASE_CORE_VERIFY_H_
