// MUST NOT COMPILE under -Wthread-safety -Werror=thread-safety (the `tsa`
// preset).  This file seeds the exact defect the annotation layer exists to
// reject — touching a GUARDED_BY field without holding its mutex — and the
// negative_compile_thread_safety ctest passes only on Clang's
// thread-safety diagnostic.  If this file ever compiles under the tsa
// toolchain, the annotations have been silently disabled and the whole
// compile-time lock discipline is void.
//
// It is deliberately NOT part of any CMake target's sources; the test
// invokes the compiler on it directly with -fsyntax-only.

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mural {

class Account {
 public:
  void Deposit(int amount) {
    balance_ += amount;  // BUG: mu_ not held -> -Wthread-safety error
  }

  int Read() const {
    MutexLock lock(mu_);
    return balance_;  // correct access, for contrast
  }

 private:
  mutable Mutex mu_;
  int balance_ GUARDED_BY(mu_) = 0;
};

void Touch() {
  Account a;
  a.Deposit(1);
  (void)a.Read();
}

}  // namespace mural
