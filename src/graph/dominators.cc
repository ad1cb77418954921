#include "graph/dominators.h"

namespace rock::graph {

bool
dominates(const std::vector<int>& idom, int a, int b)
{
    if (a < 0 || b < 0 ||
        static_cast<std::size_t>(b) >= idom.size() ||
        static_cast<std::size_t>(a) >= idom.size())
        return false;
    if (idom[static_cast<std::size_t>(b)] < 0)
        return false; // b unreachable: dominated by nothing
    int cur = b;
    while (true) {
        if (cur == a)
            return true;
        int up = idom[static_cast<std::size_t>(cur)];
        if (up == cur || up < 0)
            return false; // reached the entry (or fell off)
        cur = up;
    }
}

} // namespace rock::graph
