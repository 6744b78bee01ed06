#ifndef JIM_TESTS_SUPPORT_EQUALITY_H_
#define JIM_TESTS_SUPPORT_EQUALITY_H_

// Comparison operators only the tests use, as references: libjim's own code
// compares none of these values this way.

#include "lattice/partition.h"
#include "relational/schema.h"
#include "util/status.h"

namespace jim::lat {

inline bool operator!=(const Partition& a, const Partition& b) {
  return !(a == b);
}

}  // namespace jim::lat

namespace jim::rel {

inline bool operator==(const Attribute& a, const Attribute& b) {
  return a.name == b.name && a.type == b.type && a.qualifier == b.qualifier;
}

inline bool operator==(const Schema& a, const Schema& b) {
  return a.attributes() == b.attributes();
}

}  // namespace jim::rel

namespace jim::util {

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

}  // namespace jim::util

#endif  // JIM_TESTS_SUPPORT_EQUALITY_H_
