// JSON string escaping shared by every hand-rolled JSON writer (trace
// export, the router's /healthz).
#pragma once

#include <string>
#include <string_view>

namespace cosched {

/// Appends `text` to `out` as the body of a JSON string: quote and
/// backslash escaped, \n \r \t by name, every other control character as
/// \u00XX. Bytes >= 0x20 pass through unchanged (UTF-8 stays UTF-8).
void append_json_escaped(std::string& out, std::string_view text);

}  // namespace cosched
