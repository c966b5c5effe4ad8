"""Raw-frame feeders for the serving tests: answer ``refresh`` frames by hand.

A ``refresh`` frame carries the keys of one owner's share of a query's
refresh batch; the feeder answers with their exact values in key order.
"""


def refresh_reply(values, frame):
    """The reply a feeder holding ``values`` sends to one ``refresh`` frame."""
    return {"id": frame["id"], "values": [values[key] for key in frame["keys"]]}


def refresh_answerer(values):
    """A ``Client`` ``on_request`` handler answering from ``values``.

    ``values`` is read when each frame arrives, so a test may change it
    between refreshes.
    """

    async def answer(frame):
        return refresh_reply(values, frame)

    return answer
