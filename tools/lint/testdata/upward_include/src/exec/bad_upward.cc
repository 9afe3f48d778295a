// Fixture for the mural_lint_upward_include test: exec/ sits below sql/
// in the architecture DAG (sql -> optimizer -> exec), so this include
// runs upward and the test passes only when the lint reports [layering].

#include "sql/sql.h"
