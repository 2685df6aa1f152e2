// Factories for common helper functions. Helpers are the paper's workflow
// answer to signature mismatches and result composition: type casts, constant
// supply, combining parallel activity outputs (concatenation, union, join).
#ifndef FEDFLOW_WFMS_HELPERS_H_
#define FEDFLOW_WFMS_HELPERS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/value.h"
#include "wfms/model.h"

namespace fedflow::wfms {

/// Returns the single input unchanged (1 input).
HelperFn MakeIdentityHelper();

/// Casts column `column` of the single input to `target`, keeping all other
/// columns (the paper's simple-case INT -> BIGINT conversion).
HelperFn MakeCastHelper(std::string column, DataType target);

/// Renames the columns of the single input to `names` (arity must match).
HelperFn MakeRenameHelper(std::vector<std::string> names);

/// Concatenates all inputs column-wise; every input must have exactly one
/// row. Combines parallel scalar results into one row.
HelperFn MakeConcatHelper();

/// Unions the rows of all inputs; schemas must have equal arity (column
/// names are taken from the first input).
HelperFn MakeUnionAllHelper();

/// Hash-joins input 0 and input 1 on the key columns at `left_index` and
/// `right_index`, emitting the columns of both inputs (the paper's
/// independent-case composition "join with selection"). Keys match when they
/// hash alike and are SQL-equal, so NULL keys never match. The right input is
/// indexed in flat vectors and each left row probes it; output order is left
/// row ascending, then matching right row descending. Positional keys serve
/// join chains, whose column names may repeat.
HelperFn MakeIndexJoinHelper(size_t left_index, size_t right_index);

/// The index join on the columns named `left_column` (input 0) and
/// `right_column` (input 1).
HelperFn MakeJoinHelper(std::string left_column, std::string right_column);

/// Projects the single input to the named columns, in order.
HelperFn MakeProjectHelper(std::vector<std::string> columns);

/// Ignores inputs and emits a constant 1x1 table (column `name`).
HelperFn MakeConstHelper(std::string name, Value value);

}  // namespace fedflow::wfms

#endif  // FEDFLOW_WFMS_HELPERS_H_
