'''Fixed runtime preamble embedded in every generated serialization library.

The generated module is standalone: it does not import :mod:`repro`.  The
preamble provides the low-level helpers (byte reader, piece assembly with
derived-length slots, value codecs, message path access) that the generated
per-node functions call.  Everything protocol- and transformation-specific is
emitted by the emitter as literal arguments of those calls, so the preamble is
identical across generated libraries.
'''

PREAMBLE = '''
import random as _random

_TEXT_ENCODING = "latin-1"


class GeneratedCodecError(Exception):
    """Raised by the generated library on malformed input or missing fields."""


# --------------------------------------------------------------------------
# byte reader
# --------------------------------------------------------------------------


class _Reader:
    __slots__ = ("_data", "_start", "_end", "_cursor")

    def __init__(self, data, start=0, end=None):
        self._data = data
        self._start = start
        self._end = len(data) if end is None else end
        self._cursor = start

    def remaining(self):
        return self._end - self._cursor

    def at_end(self):
        return self._cursor >= self._end

    def starts_with(self, prefix):
        return self._data[self._cursor:min(self._cursor + len(prefix), self._end)] == prefix

    def read(self, count):
        if count < 0 or self.remaining() < count:
            raise GeneratedCodecError(
                "unexpected end of data: needed %d byte(s), %d available"
                % (count, self.remaining()))
        data = self._data[self._cursor:self._cursor + count]
        self._cursor += count
        return data

    def read_rest(self):
        return self.read(self.remaining())

    def read_until(self, delimiter):
        position = self._data.find(delimiter, self._cursor, self._end)
        if position < 0:
            raise GeneratedCodecError("delimiter %r not found" % (delimiter,))
        value = self._data[self._cursor:position]
        self._cursor = position + len(delimiter)
        return value

    def sub(self, length):
        if self.remaining() < length:
            raise GeneratedCodecError(
                "sub-window of %d byte(s) exceeds remaining %d" % (length, self.remaining()))
        child = _Reader(self._data, self._cursor, self._cursor + length)
        self._cursor += length
        return child


# --------------------------------------------------------------------------
# value codecs
# --------------------------------------------------------------------------


def _enc_uint(value, size, endian):
    return int(value).to_bytes(size, endian)


def _dec_uint(data, endian):
    return int.from_bytes(data, endian)


def _enc_value(value, kind, size, endian):
    if kind == "uint":
        return _enc_uint(value, size, endian)
    if isinstance(value, str):
        data = value.encode(_TEXT_ENCODING)
    else:
        data = bytes(value)
    if size is not None and len(data) != size:
        raise GeneratedCodecError(
            "fixed-size field expects %d byte(s), value has %d" % (size, len(data)))
    return data


def _dec_value(data, kind, endian):
    if kind == "uint":
        return _dec_uint(data, endian)
    if kind == "text":
        return data.decode(_TEXT_ENCODING)
    return bytes(data)


def _chain_step(value, kind, op, const, bytewise, width, inverse):
    if bytewise:
        data = _enc_value(value, kind, None, "big")
        out = bytearray()
        for byte in data:
            if op == "xor":
                out.append(byte ^ (const & 0xFF))
            elif (op == "add") != inverse:
                out.append((byte + const) % 256)
            else:
                out.append((byte - const) % 256)
        return _dec_value(bytes(out), kind, "big")
    modulus = 1 << (8 * width)
    value = int(value)
    if op == "xor":
        return value ^ (const % modulus)
    if (op == "add") != inverse:
        return (value + const) % modulus
    return (value - const) % modulus


def _chain_apply(value, kind, chain):
    for op, const, bytewise, width in chain:
        value = _chain_step(value, kind, op, const, bytewise, width, False)
    return value


def _chain_invert(value, kind, chain):
    for op, const, bytewise, width in reversed(chain):
        value = _chain_step(value, kind, op, const, bytewise, width, True)
    return value


def _combine(op, kind, width, first, second):
    if op == "cat":
        if isinstance(first, str) or isinstance(second, str):
            first = first if isinstance(first, str) else first.decode(_TEXT_ENCODING)
            second = second if isinstance(second, str) else second.decode(_TEXT_ENCODING)
            merged = first + second
            return merged if kind == "text" else merged.encode(_TEXT_ENCODING)
        merged = bytes(first) + bytes(second)
        return merged.decode(_TEXT_ENCODING) if kind == "text" else merged
    modulus = 1 << (8 * width)
    first, second = int(first), int(second)
    if op == "add":
        return (first + second) % modulus
    if op == "sub":
        return (first - second) % modulus
    return first ^ second


def _fit(what, name, value, width):
    value = int(value)
    if not 0 <= value < 1 << (8 * width):
        raise GeneratedCodecError(
            "%s %r: value %d does not fit in %d byte(s)" % (what, name, value, width))
    return value


def _split_values(ctx, name, origin, op, kind, width, split_at):
    value = _msg_get(ctx["message"], _resolve(origin, ctx["idx"]))
    if value is None:
        raise GeneratedCodecError("missing logical field %r" % (origin,))
    rng = ctx["rng"]
    if op == "cat":
        data = value
        cut = split_at if split_at is not None else rng.randint(0, len(data))
        cut = max(0, min(cut, len(data)))
        return data[:cut], data[cut:]
    modulus = 1 << (8 * width)
    logical = _fit("synthesis node", name, value, width)
    share = rng.randrange(modulus)
    if op == "add":
        return share, (logical - share) % modulus
    if op == "sub":
        return share, (share - logical) % modulus
    return share, logical ^ share


# --------------------------------------------------------------------------
# logical message access
# --------------------------------------------------------------------------


def _resolve(path, indices):
    if path is None:
        return None
    resolved = []
    cursor = 0
    for step in path:
        if step == "*":
            resolved.append(indices[cursor])
            cursor += 1
        else:
            resolved.append(step)
    return tuple(resolved)


def _msg_get(message, path):
    current = message
    for step in path:
        if isinstance(step, str):
            if not isinstance(current, dict) or step not in current:
                return None
            current = current[step]
        else:
            if not isinstance(current, list) or not 0 <= step < len(current):
                return None
            current = current[step]
    return current


def _msg_set(message, path, value):
    current = message
    for position, step in enumerate(path):
        final = position == len(path) - 1
        if isinstance(step, str):
            if final:
                current[step] = value
                return
            nxt = current.get(step)
            if not isinstance(nxt, (dict, list)):
                nxt = [] if isinstance(path[position + 1], int) else {}
                current[step] = nxt
            current = nxt
        else:
            while len(current) <= step:
                current.append(None)
            if final:
                current[step] = value
                return
            nxt = current[step]
            if not isinstance(nxt, (dict, list)):
                nxt = [] if isinstance(path[position + 1], int) else {}
                current[step] = nxt
            current = nxt


def _msg_list_len(message, path):
    value = _msg_get(message, path)
    return len(value) if isinstance(value, list) else 0


# --------------------------------------------------------------------------
# serialization pieces (chunks and derived-length slots)
# --------------------------------------------------------------------------


def _out_bytes(out, data):
    if data:
        out.append(bytes(data))


def _out_slot(out, name, target, width, endian, chain, context):
    out.append({"name": name, "target": target, "width": width, "endian": endian,
                "chain": chain, "mirrored": False, "context": context})


def _out_len(out):
    total = 0
    for piece in out:
        total += piece["width"] if isinstance(piece, dict) else len(piece)
    return total


def _out_mirror(out):
    mirrored = []
    for piece in reversed(out):
        if isinstance(piece, dict):
            flipped = dict(piece)
            flipped["mirrored"] = not piece["mirrored"]
            mirrored.append(flipped)
        else:
            mirrored.append(piece[::-1])
    return mirrored


def _close(ctx, out, sub, name, mirrored):
    if mirrored:
        sub = _out_mirror(sub)
    ctx["lengths"][(name, tuple(ctx["idx"]))] = _out_len(sub)
    out.extend(sub)


def _assemble(out, lengths):
    buffer = bytearray()
    for piece in out:
        if isinstance(piece, dict):
            length = lengths.get((piece["target"], piece["context"]), 0)
            length = _fit("terminal", piece["name"], length, piece["width"])
            value = _chain_apply(length, "uint", piece["chain"])
            data = _enc_uint(value, piece["width"], piece["endian"])
            buffer += data[::-1] if piece["mirrored"] else data
        else:
            buffer += piece
    return bytes(buffer)


# --------------------------------------------------------------------------
# terminal serialization / parsing
# --------------------------------------------------------------------------


def _terminal_ser(ctx, out, name, origin, kind, endian, chain, mirrored, pad,
                  boundary, value_override=None):
    sub = []
    if pad:
        size = boundary[1]
        _out_bytes(sub, bytes(ctx["rng"].randrange(256) for _ in range(size)))
    elif name in _LENGTH_TARGETS and value_override is None:
        _out_slot(sub, name, _LENGTH_TARGETS[name], boundary[1], endian, chain,
                  tuple(ctx["idx"]))
    else:
        if value_override is not None:
            value = value_override
        elif name in _COUNTER_ORIGINS and origin is None:
            value = _msg_list_len(ctx["message"],
                                  _resolve(_COUNTER_ORIGINS[name], ctx["idx"]))
        else:
            value = _msg_get(ctx["message"], _resolve(origin, ctx["idx"]))
            if value is None:
                raise GeneratedCodecError("missing logical field %r" % (origin,))
        if kind == "uint":
            value = _fit("terminal", name, value, boundary[1])
        value = _chain_apply(value, kind, chain)
        size = boundary[1] if boundary[0] == "fixed" else None
        encoded = _enc_value(value, kind, size, endian)
        if boundary[0] == "delimited":
            if boundary[1] in encoded:
                raise GeneratedCodecError(
                    "value of %s contains its delimiter %r" % (name, boundary[1]))
            _out_bytes(sub, encoded)
            _out_bytes(sub, boundary[1])
        else:
            _out_bytes(sub, encoded)
    _close(ctx, out, sub, name, mirrored)


def _terminal_par(reader, ctx, name, kind, endian, chain, mirrored, pad, boundary,
                  prebounded=False):
    if prebounded:
        raw = reader.read_rest()
    elif boundary[0] == "fixed":
        raw = reader.read(boundary[1])
    elif boundary[0] == "delimited":
        raw = reader.read_until(boundary[1])
    elif boundary[0] == "length":
        raw = reader.read(_ref_val(ctx, boundary[1]))
    else:
        raw = reader.read_rest()
    if mirrored and not prebounded:
        raw = raw[::-1]
    if pad:
        return None
    value = _dec_value(raw, kind, endian)
    return _chain_invert(value, kind, chain)


def _store(ctx, msg, name, origin, value):
    if value is None:
        return
    ctx["raw"][name] = value
    if origin is not None:
        _msg_set(msg, _resolve(origin, ctx["idx"]), value)


def _ref_val(ctx, ref):
    if ref not in ctx["raw"]:
        raise GeneratedCodecError("reference %r not parsed yet" % (ref,))
    return int(ctx["raw"][ref])


# --------------------------------------------------------------------------
# composite helpers
# --------------------------------------------------------------------------


def _window_par(reader, ctx, boundary, mirrored, static_size):
    if mirrored:
        if boundary[0] == "fixed":
            region = reader.read(boundary[1])
        elif boundary[0] == "length":
            region = reader.read(_ref_val(ctx, boundary[1]))
        elif boundary[0] == "end":
            region = reader.read_rest()
        else:
            region = reader.read(static_size)
        return _Reader(region[::-1]), True
    if boundary[0] == "length":
        return reader.sub(_ref_val(ctx, boundary[1])), True
    return reader, False


def _check_consumed(reader, strict, name):
    if strict and not reader.at_end():
        raise GeneratedCodecError(
            "%d byte(s) left inside bounded node %s" % (reader.remaining(), name))


def _optional_present_ser(ctx, origin, presence_origin, presence_value):
    if presence_origin is not None:
        return _msg_get(ctx["message"], _resolve(presence_origin, ctx["idx"])) == presence_value
    if origin is None:
        return False
    return _msg_get(ctx["message"], _resolve(origin, ctx["idx"])) is not None


def _opt_present_par(reader, ctx, presence_ref, presence_value):
    if presence_ref is not None:
        if presence_ref not in ctx["raw"]:
            raise GeneratedCodecError("presence reference %r not parsed yet" % (presence_ref,))
        return ctx["raw"][presence_ref] == presence_value
    return not reader.at_end()


def _init_list(ctx, msg, origin):
    if origin is None:
        return
    path = _resolve(origin, ctx["idx"])
    if _msg_get(msg, path) is None:
        _msg_set(msg, path, [])
'''
