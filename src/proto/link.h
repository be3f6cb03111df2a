// Compatibility re-export: the lossy-link model moved down into net/link.h
// so the collection data plane (net/lossy_collection) can sample links
// without a net -> proto layering cycle. Every in-tree caller names
// net::LinkModel; this alias remains only for perfbench/gateway_month.cpp.
#pragma once

#include "net/link.h"

namespace cool::proto {

using LinkModelConfig = net::LinkModelConfig;
using LinkModel = net::LinkModel;

}  // namespace cool::proto
