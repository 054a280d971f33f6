#include "array/coordinates.h"

#include <algorithm>
#include <sstream>

namespace scidb {

std::string CoordsToString(const Coordinates& c) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < c.size(); ++i) {
    if (i) os << ",";
    os << c[i];
  }
  os << "]";
  return os.str();
}

std::string Box::ToString() const {
  return CoordsToString(low) + ".." + CoordsToString(high);
}

int64_t RankInBox(const Box& box, const Coordinates& c) {
  SCIDB_DCHECK(c.size() == box.ndims());
  int64_t rank = 0;
  for (size_t d = 0; d < c.size(); ++d) {
    int64_t extent = box.high[d] - box.low[d] + 1;
    rank = rank * extent + (c[d] - box.low[d]);
  }
  return rank;
}

Coordinates UnrankInBox(const Box& box, int64_t rank) {
  Coordinates c(box.ndims());
  for (size_t i = box.ndims(); i-- > 0;) {
    int64_t extent = box.high[i] - box.low[i] + 1;
    c[i] = box.low[i] + rank % extent;
    rank /= extent;
  }
  return c;
}

bool NextInBox(const Box& box, Coordinates* c) {
  for (size_t i = box.ndims(); i-- > 0;) {
    if ((*c)[i] < box.high[i]) {
      ++(*c)[i];
      return true;
    }
    (*c)[i] = box.low[i];
  }
  return false;
}

bool NextRowInBox(const Box& box, Coordinates* c) {
  if (box.ndims() == 0) return false;
  for (size_t i = box.ndims() - 1; i-- > 0;) {
    if ((*c)[i] < box.high[i]) {
      ++(*c)[i];
      return true;
    }
    (*c)[i] = box.low[i];
  }
  return false;
}

}  // namespace scidb
