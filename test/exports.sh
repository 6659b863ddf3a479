#!/bin/sh
# Interface diet gate: every `val` a lib/ interface exports must have a
# caller outside its own module in lib/, bin/, bench/, perf/ or
# examples/, and every top-level value of a lib/ module without an
# interface must be used inside or outside its module.  A caller is a source file that names both the module and
# the value (word match), so qualified calls, local aliases and `open`s
# all count.  Test-only exports are allowed only when listed in
# test/exports.allow with the reason a test needs them; an allowlist
# entry that is no longer exported or has gained a caller is stale and
# fails too.  OCaml comments, nested ones included, are stripped before
# matching, so a value named only in a comment has no caller.  Run from
# the repository root: `make exports`.

allow=test/exports.allow
allowed=$(sed -e 's/#.*//' "$allow" | awk 'NF { print $1 }' | sort)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for f in $(find lib bin bench perf examples -name '*.ml' -o -name '*.mli'); do
  mkdir -p "$tmp/$(dirname "$f")"
  perl -0777 -pe 's/\(\*(?:(?R)|[^(*]|\((?!\*)|\*(?!\)))*\*\)/ /gs' "$f" > "$tmp/$f"
done
cd "$tmp" || exit 1
srcs=$(find lib bin bench perf examples -name '*.ml' -o -name '*.mli' | sort)

uncalled=$(
  for mli in $(find lib -name '*.mli' | sort); do
    base=${mli%.mli}
    mod=$(basename "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
    others=$(echo "$srcs" | grep -vxF -e "$base.ml" -e "$base.mli")
    naming=$(grep -lw -- "$mod" $others)
    sed -nE "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\1/p" "$mli" \
      | sort -u | while read -r v; do
        if [ -z "$naming" ] || ! grep -qw -- "$v" $naming; then echo "$mod.$v"; fi
      done
  done)
# A module without an interface exports every top-level value, so its
# top-level `let`s pass the same gate; since nothing hides them, a use
# inside the module (a second mention in its own file) counts too.
uncalled="$uncalled
$(
  for ml in $(find lib -name '*.ml' | sort); do
    base=${ml%.ml}
    [ -f "$base.mli" ] && continue
    mod=$(basename "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
    others=$(echo "$srcs" | grep -vxF -e "$ml")
    naming=$(grep -lw -- "$mod" $others)
    sed -nE "s/^let[[:space:]]+(rec[[:space:]]+)?([a-z_][A-Za-z0-9_']*).*/\2/p" "$ml" \
      | grep -vx _ | sort -u | while read -r v; do
        if [ "$(grep -ow -- "$v" "$ml" | wc -l)" -le 1 ] \
          && { [ -z "$naming" ] || ! grep -qw -- "$v" $naming; }; then
          echo "$mod.$v"
        fi
      done
  done)"
st=0
for name in $uncalled; do
  if ! echo "$allowed" | grep -qxF "$name"; then
    echo "exports: $name has no caller (delete it, or list it in $allow)"
    st=1
  fi
done
for name in $allowed; do
  if ! echo "$uncalled" | grep -qxF "$name"; then
    echo "exports: stale $allow entry $name (not exported, or it has a caller now)"
    st=1
  fi
done
n=$(grep -hE '^[[:space:]]*val[[:space:]]' $(find lib -name '*.mli') | wc -l)
echo "exports: $n vals in lib/ interfaces, $(echo "$allowed" | grep -c .) test-only (allowlisted)"
exit $st
