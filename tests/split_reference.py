"""The per-cone split on a smooth fan, taken in two steps, as a reference.

``kfan.sheaves`` projects each tau-part straight into the ray
coordinates of the cone that receives it (``sheaves._projected``).
Here the split goes the long way round: restrict an element to a face
tau, project it onto A_tau in tau's own ray coordinates by multiplying
prod (x_i^e_i - 1) out one factor at a time, then zero-pad each part
back into the cone and add the parts.  Cones are numbers; elements are
term dicts.
"""

from kfan.monoids import push_terms


def top_part(terms: dict) -> dict:
    """sum of k prod (x_i^e_i - 1) over the terms k x^e, multiplied out
    one factor at a time; a factor with e_i = 0 cancels itself."""
    out: dict = {}
    for e, k in terms.items():
        poly = {(): k}
        for x in e:
            nxt: dict = {}
            for key, c in poly.items():
                for ext, s in (((x,), c), ((0,), -c)):
                    nxt[key + ext] = nxt.get(key + ext, 0) + s
            poly = nxt
        for key, c in poly.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def split(sheaf, terms: dict, cone: int, faces) -> dict:
    """The nonzero tau-parts of terms at the cone, in tau's ray
    coordinates, by face number: restrict, then project."""
    parts = {}
    for tau in faces:
        part = top_part(push_terms(terms, sheaf.restriction_at(cone, tau)))
        if part:
            parts[tau] = part
    return parts


def assemble(sheaf, parts: dict, cone: int, faces) -> dict:
    """The sum of the zero-padded parts of the ``faces`` of the cone."""
    out: dict = {}
    for tau in faces:
        pad = sheaf.restriction_at(cone, tau).pad
        for e, k in parts.get(tau, {}).items():
            key = pad(e + (0,))
            out[key] = out.get(key, 0) + k
    return {e: k for e, k in out.items() if k}


def drawn_values(sheaf, drawn: dict, cones) -> dict:
    """The terms on these cones whose tau-parts are those of the
    monomials ``drawn`` on the cones tau, in tau's ray coordinates."""
    fan = sheaf.fan
    parts = {tau: top_part(m) for tau, m in drawn.items()}
    return {c: assemble(sheaf, parts, c, fan.face_ids[c]) for c in cones}


def extended_values(section) -> dict:
    """The terms of the extension of a section over the whole fan: its
    own values on its domain, and on each maximal cone outside it the
    tau-parts of the section's values on its faces in the domain."""
    sheaf, fan, domain = section.sheaf, section.sheaf.fan, section.domain
    out = {}
    for c in fan.max_ids:
        if c in section.values:
            out[c] = section.values[c].terms
            continue
        parts = {}
        for tau in fan.face_ids[c]:
            if tau in domain.ids:
                parts.update(split(sheaf, section.value_at(tau).terms, tau, [tau]))
        out[c] = assemble(sheaf, parts, c, fan.face_ids[c])
    return out
