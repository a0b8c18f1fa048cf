// Test-only reference implementation of exact::branch_bound_lower_bound:
// the straightforward search (every node rescans all tasks for the
// bound and the ready set, every expansion allocates and stable-sorts
// its own child list).  The differential tests in exact_test.cpp require
// the production search to return bit-identical results on every input.
#pragma once

#include "exact/branch_bound.hpp"

namespace oneport::testsupport {

/// Same contract as exact::branch_bound_lower_bound, except that a
/// negative `max_search_tasks` is not rejected (callers never pass one).
[[nodiscard]] exact::BranchBoundResult reference_branch_bound_lower_bound(
    const TaskGraph& g, const Platform& platform,
    const exact::BranchBoundOptions& options = {});

}  // namespace oneport::testsupport
